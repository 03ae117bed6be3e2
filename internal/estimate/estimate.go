// Package estimate is the analytical fast path: a deterministic,
// allocation-free steady-state model of the pool/threshold dynamics that
// predicts a run's headline statistics (relative execution time, miss
// classification, upgrade/downgrade counts, pool occupancy) in
// microseconds instead of the milliseconds-to-seconds a simulation takes.
//
// The model is fed by workload.Profile — an exact single-node replay of
// each reference stream through the real L1/RAC structures — and derives
// everything the architectures differ on analytically: per-page-class
// costs for CC-NUMA (RAC-filtered remote fetches), S-COMA (page-cache hits
// minus invalidation refetches), the hybrids' refetch-threshold upgrade
// lifecycle, AS-COMA's back-off denials, and MIG-NUMA's migration
// ping-pong. Per-arch remote costs fold into one per-remote-miss weight
// per node, and execution time is composed interval by interval as the
// max over nodes — the same barrier structure the simulator executes.
//
// Predictions share the overhead formula with simulations through
// model.Terms (see Prediction.Terms), so the two can never drift apart
// silently; `make model-check` pins the model's error against the
// 72-config golden matrix.
package estimate

import (
	"errors"

	"ascoma/internal/mem"
	"ascoma/internal/model"
	"ascoma/internal/params"
	"ascoma/internal/stats"
	"ascoma/internal/workload"
)

// maxNodes bounds the per-node scratch arrays Predict keeps on the stack
// so the hot path stays allocation-free.
const maxNodes = 64

// contendPct inflates the unloaded remote-fetch latency for queueing at
// the bus, directory, banked memory, and network ports (calibrated
// against the golden matrix).
const contendPct = 15

// Prediction is the estimator's stats.Machine-shaped headline for one
// (arch, pressure) cell.
type Prediction struct {
	Arch     string `json:"arch"`
	Workload string `json:"workload"`
	Pressure int    `json:"pressure"`
	Nodes    int    `json:"nodes"`

	ExecTime int64   `json:"execTimeCycles"`
	RelTime  float64 `json:"relTime"` // vs the CC-NUMA baseline for the same workload

	// Misses is the predicted shared-data miss split, indexed by
	// stats.MissCat (HOME, SCOMA, RAC, COLD, CONF/CAPC).
	Misses [stats.NumMissCats]int64 `json:"misses"`

	Upgrades    int64 `json:"upgrades"`
	Downgrades  int64 `json:"downgrades"`
	RelocDenied int64 `json:"relocDenied"`
	Migrations  int64 `json:"migrations"`
	PageFaults  int64 `json:"pageFaults"`
	RemotePages int64 `json:"remotePages"`

	// PoolPages is the predicted steady-state S-COMA page-cache
	// occupancy of the fullest node.
	PoolPages int64 `json:"poolPages"`

	// Insensitive reports the pressure-equivalence certificate: the
	// free pool provably never drops below free_target at this pressure,
	// so the run's results are bit-identical across every certified
	// pressure (see Estimator.Insensitive).
	Insensitive bool `json:"insensitive"`
}

// Terms expresses the prediction in the paper's overhead model so that
// predictions and simulations share one formula (model.Terms.Overhead).
func (pr *Prediction) Terms(p *params.Params) model.Terms {
	return model.Terms{
		Arch:       pr.Arch,
		Npagecache: pr.Misses[stats.SComa],
		Nremote:    pr.Misses[stats.ConfCapc],
		Ncold:      pr.Misses[stats.Cold],
		Nrac:       pr.Misses[stats.RAC],
		Tpagecache: int64(p.BusCycles + p.LocalMemCycles),
		Tremote:    int64(p.RemoteMemCycles()),
		Trac:       int64(p.RACHitCycles),
	}
}

// Estimator predicts headline stats for every architecture of one
// workload under one parameter set. Predict is allocation-free and safe
// for concurrent use; building the Estimator does the one-time profile
// replay (memoized per generator) and the CC-NUMA baseline.
type Estimator struct {
	prof *workload.Profile
	p    params.Params

	// Per-node class totals, precomputed from the profile.
	sTot [maxNodes]int64 // remote L1 misses
	cTot [maxNodes]int64 // cold block fetches
	xTot [maxNodes]int64 // invalidation refetches
	dTot [maxNodes]int64 // distinct remote pages

	baseline int64 // CC-NUMA execution time (pressure-independent)

	// memAdj is the tiered-memory adjustment to the effective local
	// memory latency (SetTiers); 0 on flat configurations, which keeps
	// every pre-tier prediction bit-identical.
	memAdj int64
}

// New builds an estimator for prof under p. The profile replay has
// already happened (or is triggered memoized); New only precomputes
// node totals and the CC-NUMA baseline.
func New(prof *workload.Profile, p params.Params) (*Estimator, error) {
	if prof.Nodes > maxNodes {
		return nil, errors.New("estimate: too many nodes")
	}
	e := &Estimator{prof: prof, p: p}
	for n := 0; n < prof.Nodes; n++ {
		np := &prof.PerNode[n]
		e.dTot[n] = np.RemotePages
		for ci := range np.Classes {
			c := &np.Classes[ci]
			e.sTot[n] += c.Pages * c.S
			e.cTot[n] += c.Pages * c.C
			e.xTot[n] += c.Pages * c.X
		}
	}
	base := e.Predict(params.CCNUMA, 50)
	e.baseline = base.ExecTime
	return e, nil
}

// Profile returns the profile the estimator was built from.
func (e *Estimator) Profile() *workload.Profile { return e.prof }

// SetTiers folds a tiered-memory configuration into the model as an
// effective local-memory latency shift and recomputes the CC-NUMA
// baseline under it. The analytical model does not track per-page tier
// residency; it charges every memory access the capacity-weighted mean
// tier latency (TierMemAdjust), which matches the simulator's steady
// state once placement has spread pages across tiers. A nil spec with
// PolicyNone restores the flat model exactly.
func (e *Estimator) SetTiers(specs []mem.TierSpec, pol mem.Policy) {
	e.memAdj = TierMemAdjust(&e.p, specs, pol)
	base := e.Predict(params.CCNUMA, 50)
	e.baseline = base.ExecTime
}

// TierMemAdjust returns the shift in effective local-memory latency a
// tier configuration induces: the capacity-weighted mean of each tier's
// latencies under a 3:1 read:write mix, scaled by the row-buffer
// policy's expected hit economy (open rows convert most same-row
// accesses to fast hits; the hybrid predictor captures a little less;
// closed pages always pay the full activate), minus the flat
// LocalMemCycles the unadjusted model already charges.
func TierMemAdjust(p *params.Params, specs []mem.TierSpec, pol mem.Policy) int64 {
	if len(specs) == 0 {
		if pol == mem.PolicyNone {
			return 0
		}
		// A policy without tiers models row buffers on one flat tier.
		specs = []mem.TierSpec{{CapacityPct: 100, ReadCycles: p.LocalMemCycles, WriteCycles: p.LocalMemCycles}}
	}
	var eff int64
	for _, ts := range specs {
		eff += int64(ts.CapacityPct) * (3*ts.ReadCycles + ts.WriteCycles) / 4
	}
	eff /= 100
	switch pol {
	case mem.PolicyOpen:
		eff = eff * 85 / 100
	case mem.PolicyHybrid:
		eff = eff * 90 / 100
	}
	return eff - p.LocalMemCycles
}

// Baseline returns the CC-NUMA execution-time baseline RelTime is
// normalized against.
func (e *Estimator) Baseline() int64 { return e.baseline }

// TotalPages returns the per-node physical page count at the given
// pressure, mirroring the machine's sizing rule.
func (e *Estimator) TotalPages(pressure int) int64 {
	resident := int64(e.prof.HomePagesPerNode + e.prof.PrivatePagesPerNode)
	if pressure < 1 {
		pressure = 1
	}
	return (resident*100 + int64(pressure) - 1) / int64(pressure)
}

// Insensitive reports the pressure-equivalence certificate for this
// workload at the given pressure: if the pool can hold every remote page
// any node ever touches and still stay strictly above free_target, the
// pageout daemon never acts, no allocation ever fails, and the run's
// statistics are bit-identical to any other certified pressure (only the
// Pressure label differs). The bound covers every architecture: S-COMA
// replication, hybrid upgrades, and MIG-NUMA adoptions are all bounded by
// the distinct remote pages touched.
func (e *Estimator) Insensitive(pressure int) bool {
	total := e.TotalPages(pressure)
	resident := int64(e.prof.HomePagesPerNode + e.prof.PrivatePagesPerNode)
	freeTarget := total * int64(e.p.FreeTargetPct) / 100
	return total-resident-e.prof.MaxRemotePages >= freeTarget+1
}

// archCost accumulates one node's predicted remote-access economy for one
// architecture: total cycles attributable to remote misses plus all
// architecture-specific overheads, and the resulting miss split.
type archCost struct {
	cycles      int64 // remote stall + kernel overhead cycles
	faults      int64 // extra faults beyond first touches (thrash refaults)
	misses      [stats.NumMissCats]int64
	upgrades    int64
	downgrades  int64
	denied      int64
	migrations  int64
	poolPages   int64
	remotePages int64
}

// Predict returns the headline prediction for one (arch, pressure) cell.
// It is the estimator's hot path: called once per grid cell of an
// estimate request, so it must not allocate.
func (e *Estimator) Predict(arch params.Arch, pressure int) Prediction {
	p := &e.p
	prof := e.prof
	nodes := prof.Nodes

	tLocal := int64(p.BusCycles+p.LocalMemCycles) + e.memAdj
	tRemote := int64(p.RemoteMemCycles()) + e.memAdj
	tFault := int64(p.PageFaultCycles)
	tL1 := int64(p.L1HitCycles)

	total := e.TotalPages(pressure)
	resident := int64(prof.HomePagesPerNode + prof.PrivatePagesPerNode)
	pool := total - resident
	freeTarget := total * int64(p.FreeTargetPct) / 100
	freeMin := total * int64(p.FreeMinPct) / 100
	cap := pool - freeTarget
	if cap < 1 {
		cap = 1
	}
	capMin := pool - freeMin
	if capMin < 1 {
		capMin = 1
	}

	var w [maxNodes]float64 // per-remote-miss weight, per node
	var cost, nc archCost
	var homeMisses int64
	for n := 0; n < nodes; n++ {
		e.nodeCost(&nc, arch, n, pool, cap, capMin)
		if e.sTot[n] > 0 {
			w[n] = float64(nc.cycles) / float64(e.sTot[n])
		}
		cost.add(&nc)
	}

	// Compose execution time interval by interval: each barrier interval
	// ends when the slowest node arrives.
	var exec int64
	intervals := len(prof.PerNode[0].Intervals)
	for i := 0; i < intervals; i++ {
		var worst int64
		for n := 0; n < nodes; n++ {
			iv := &prof.PerNode[n].Intervals[i]
			fixed := iv.Think +
				iv.L1Hits*tL1 +
				(iv.HomeMisses+iv.PrivMisses)*tLocal +
				iv.Faults*tFault +
				iv.LockOps*tRemote
			t := fixed + int64(float64(iv.RemoteMisses)*w[n])
			if t > worst {
				worst = t
			}
		}
		exec += worst
	}
	exec += prof.Barriers * int64(p.BarrierCycles)

	var faults int64
	for n := 0; n < nodes; n++ {
		for i := range prof.PerNode[n].Intervals {
			iv := &prof.PerNode[n].Intervals[i]
			faults += iv.Faults
			homeMisses += iv.HomeMisses
		}
	}
	cost.misses[stats.Home] += homeMisses
	if cost.misses[stats.Home] < 0 {
		cost.misses[stats.Home] = 0
	}

	pr := Prediction{
		Arch:        arch.String(),
		Workload:    prof.Name,
		Pressure:    pressure,
		Nodes:       nodes,
		ExecTime:    exec,
		Misses:      cost.misses,
		Upgrades:    cost.upgrades,
		Downgrades:  cost.downgrades,
		RelocDenied: cost.denied,
		Migrations:  cost.migrations,
		PageFaults:  faults + cost.faults,
		RemotePages: cost.remotePages,
		PoolPages:   cost.poolPages,
		Insensitive: e.Insensitive(pressure),
	}
	if e.baseline > 0 {
		pr.RelTime = float64(exec) / float64(e.baseline)
	} else {
		pr.RelTime = 1
	}
	return pr
}

func (a *archCost) add(b *archCost) {
	a.cycles += b.cycles
	a.faults += b.faults
	for i := range a.misses {
		a.misses[i] += b.misses[i]
	}
	a.upgrades += b.upgrades
	a.downgrades += b.downgrades
	a.denied += b.denied
	a.migrations += b.migrations
	if b.poolPages > a.poolPages {
		a.poolPages = b.poolPages
	}
	a.remotePages += b.remotePages
}

// nodeCost evaluates one node's page classes under one architecture.
func (e *Estimator) nodeCost(ac *archCost, arch params.Arch, n int, pool, cap, capMin int64) {
	p := &e.p
	np := &e.prof.PerNode[n]
	*ac = archCost{remotePages: np.RemotePages}

	tLocal := int64(p.BusCycles+p.LocalMemCycles) + e.memAdj
	// Remote fetches queue at the bus, directory, memory banks, and
	// network ports; the loaded latency runs above the unloaded sum. The
	// home's memory access shifts with the tier adjustment too.
	tRemote := (int64(p.RemoteMemCycles()) + e.memAdj) * (100 + contendPct) / 100
	tRAC := int64(p.RACHitCycles)
	tFault := int64(p.PageFaultCycles)
	tInt := int64(p.InterruptCycles)
	tReloc := int64(p.RelocationCycles)
	tMig := int64(p.MigrationCycles)
	theta := int64(p.RefetchThreshold)
	// Flushing an upgraded or evicted page out of the L1: a handful of
	// dirty block writebacks.
	kFlush := int64(p.FlushBlockWBCycles) * 4

	switch arch {
	case params.CCNUMA:
		for ci := range np.Classes {
			c := &np.Classes[ci]
			ac.cycles += c.Pages * (c.F*tRemote + c.R*tRAC)
			ac.misses[stats.Cold] += c.Pages * c.C
			ac.misses[stats.ConfCapc] += c.Pages * (c.F - c.C)
			ac.misses[stats.RAC] += c.Pages * c.R
		}

	case params.SCOMA:
		d := np.RemotePages
		occ := d
		if occ > pool {
			occ = pool
		}
		ac.poolPages = occ
		for ci := range np.Classes {
			c := &np.Classes[ci]
			// Healthy page-cache economy.
			ac.cycles += c.Pages * ((c.C+c.X+c.O)*tRemote + (c.S-c.C-c.X-c.O)*tLocal)
			ac.misses[stats.Cold] += c.Pages * c.C
			ac.misses[stats.ConfCapc] += c.Pages * c.X
			ac.misses[stats.SComa] += c.Pages * (c.S - c.C - c.X)
		}
		if d > pool {
			// Thrash: reuse episodes whose LRU stack distance exceeds
			// the pool refault — page fault plus forced victim eviction
			// — and the eviction wiped the page's blocks, so every
			// touch in the refaulted episode refetches remotely.
			refaults := reuseAtLeast(np, pool)
			if refaults > 0 {
				epLen := float64(e.sTot[n]) / float64(np.Episodes+d)
				induced := refaults * epLen
				reuse := float64(e.sTot[n] - e.cTot[n])
				if induced > reuse {
					induced = reuse
				}
				fromX := 0.0
				if reuse > 0 {
					fromX = induced * float64(e.xTot[n]) / reuse
				}
				fromSC := induced - fromX
				ac.cycles += int64(refaults*float64(tFault+tReloc*4/5+kFlush) + fromSC*float64(tRemote-tLocal))
				ac.faults += int64(refaults)
				ac.misses[stats.Cold] += int64(induced)
				ac.misses[stats.SComa] -= int64(fromSC)
				ac.misses[stats.ConfCapc] -= int64(fromX)
			}
		}

	case params.ASCOMA:
		d := np.RemotePages
		psi := 1.0 // fraction of remote pages granted S-COMA backing
		if d > cap {
			psi = float64(cap) / float64(d)
		}
		occ := d
		if occ > cap {
			occ = cap
		}
		ac.poolPages = occ
		for ci := range np.Classes {
			c := &np.Classes[ci]
			scoma := float64(c.Pages) * psi
			numa := float64(c.Pages) - scoma
			ac.cycles += int64(scoma * float64((c.C+c.X+c.O)*tRemote+(c.S-c.C-c.X-c.O)*tLocal))
			ac.misses[stats.Cold] += c.Pages * c.C
			ac.misses[stats.ConfCapc] += int64(scoma * float64(c.X))
			ac.misses[stats.SComa] += int64(scoma * float64(c.S-c.C-c.X))
			// NUMA-mode leftovers behave like CC-NUMA pages whose
			// upgrade requests the back-off policy denies with an
			// escalating threshold.
			if numa > 0 {
				ac.cycles += int64(numa * float64((c.F-c.C)*tRemote+c.R*tRAC))
				ac.misses[stats.ConfCapc] += int64(numa * float64(c.F-c.C))
				ac.misses[stats.RAC] += int64(numa * float64(c.R))
				if c.F-c.C >= theta {
					den := denials(c.F-c.C, theta, int64(p.ThresholdIncrement))
					ac.cycles += int64(numa * float64(den*tInt))
					ac.denied += int64(numa * float64(den))
				}
			}
		}

	case params.RNUMA, params.VCNUMA:
		// Hot pages upgrade after theta refetches; cold pages stay
		// CC-NUMA. When the hot set exceeds the pool, upgrades evict
		// each other and a hot page time-shares: a fraction phi of its
		// life in S-COMA mode, the rest back in CC-NUMA mode refetching
		// remotely. VC-NUMA's thrashing detector raises the threshold
		// and roughly halves the churn.
		var hot int64
		for ci := range np.Classes {
			c := &np.Classes[ci]
			if c.F-c.C >= theta {
				hot += c.Pages
			}
		}
		phi := 1.0
		if hot > capMin {
			phi = float64(capMin) / float64(hot)
		}
		kChurn := 0.55
		if arch == params.VCNUMA {
			kChurn = 0.28
		}
		occ := hot
		if occ > capMin {
			occ = capMin
		}
		ac.poolPages = occ
		for ci := range np.Classes {
			c := &np.Classes[ci]
			if c.F-c.C < theta {
				ac.cycles += c.Pages * (c.F*tRemote + c.R*tRAC)
				ac.misses[stats.Cold] += c.Pages * c.C
				ac.misses[stats.ConfCapc] += c.Pages * (c.F - c.C)
				ac.misses[stats.RAC] += c.Pages * c.R
				continue
			}
			// Remote economy of one hot page: cold fill, the CC-NUMA
			// share of refetches (including the theta that trigger each
			// upgrade), the S-COMA share's invalidation refetches, and
			// page-cache hits for the rest.
			numaRef := (1 - phi) * float64(c.F-c.C)
			if th := float64(theta); numaRef < th {
				numaRef = th // at least the refetches that triggered the upgrade
			}
			if max := float64(c.F - c.C); numaRef > max {
				numaRef = max
			}
			scFrac := 1 - numaRef/float64(c.F-c.C) // share of reuse spent in S-COMA mode
			racH := (1 - scFrac) * float64(c.R)
			scHits := scFrac * float64(c.S-c.C-c.X)
			scX := scFrac * float64(c.X)
			ups := 1.0
			if phi < 1 {
				ups = numaRef / float64(theta) * kChurn
				if ups < 1 {
					ups = 1
				}
			}
			downs := ups - phi
			if downs < 0 {
				downs = 0
			}
			// Downgrade flushes turn refetches cold: each lost residency
			// refetches the page's working blocks.
			induced := downs * float64(c.C)
			if induced > numaRef {
				induced = numaRef
			}
			perPage := float64(c.C)*float64(tRemote) + numaRef*float64(tRemote) +
				racH*float64(tRAC) + scX*float64(tRemote) + scHits*float64(tLocal) +
				ups*float64(tInt+tReloc+kFlush)
			ac.cycles += c.Pages * int64(perPage)
			ac.upgrades += int64(float64(c.Pages) * ups)
			ac.downgrades += int64(float64(c.Pages) * downs)
			ac.misses[stats.Cold] += c.Pages * int64(float64(c.C)+induced)
			ac.misses[stats.ConfCapc] += c.Pages * int64(numaRef-induced+scX)
			ac.misses[stats.RAC] += c.Pages * int64(racH)
			ac.misses[stats.SComa] += c.Pages * int64(scHits)
		}

	case params.MIGNUMA:
		// Hot pages migrate to their heaviest remote user once the
		// refetch threshold trips, and every migration raises the bar
		// (anti-ping-pong escalation). A page the home node never writes
		// migrates once and its traffic becomes local; a page whose home
		// keeps writing it ping-pongs an escalating number of times, each
		// migration invalidating every cached copy (refetches classified
		// cold) and stripping the old home of its local access — which is
		// why MIG-NUMA loses to CC-NUMA on write-shared workloads.
		racShare := float64(params.LinesPerBlock-1) / float64(params.LinesPerBlock)
		var adopted int64
		for ci := range np.Classes {
			c := &np.Classes[ci]
			if c.F-c.C < theta || c.Shar == 0 {
				ac.cycles += c.Pages * (c.F*tRemote + c.R*tRAC)
				ac.misses[stats.Cold] += c.Pages * c.C
				ac.misses[stats.ConfCapc] += c.Pages * (c.F - c.C)
				ac.misses[stats.RAC] += c.Pages * c.R
				continue
			}
			if c.Shar == 1 && c.HomeW == 0 {
				// Sole remote user and a read-only home: one migration,
				// then the page is local for good.
				local := c.S - c.C - theta
				if local < 0 {
					local = 0
				}
				ac.cycles += c.Pages * ((c.C+theta)*tRemote + local*tLocal + tInt + tMig)
				ac.migrations += c.Pages
				adopted += c.Pages
				ac.misses[stats.Cold] += c.Pages * c.C
				ac.misses[stats.ConfCapc] += c.Pages * theta
				ac.misses[stats.Home] += c.Pages * local
				continue
			}
			// Ping-pong: steady state is the CC-NUMA economy plus the
			// migration tax. effShar counts the home node as a contender
			// when it writes the page.
			effShar := float64(c.Shar)
			if c.HomeW != 0 {
				effShar++
			}
			migs := float64(denials(c.F-c.C, theta, int64(p.ThresholdIncrement)))
			if migs < 1 {
				migs = 1
			}
			ownFrac := 1.0 / effShar
			myMigs := migs * ownFrac
			// Refetches of blocks invalidated under us by other nodes'
			// migrations re-count as cold (the directory resets on
			// migrate); no extra volume, just reclassification.
			churn := (migs - myMigs) * float64(c.C)
			if max := 0.5 * float64(c.F-c.C); churn > max {
				churn = max
			}
			// The old home's lost local traffic reappears as remote
			// fetches; our share of that loss (by node symmetry) is our
			// own S scaled by the ownership fraction. Streaming rescans
			// mostly hit the RAC (linesPerBlock-1 of every block's lines).
			homeLoss := ownFrac * float64(c.S)
			perPage := float64(c.F*tRemote+c.R*tRAC) +
				myMigs*float64(tInt+tMig) +
				homeLoss*(racShare*float64(tRAC)+(1-racShare)*float64(tRemote)-float64(tLocal))
			ac.cycles += c.Pages * int64(perPage)
			ac.migrations += int64(float64(c.Pages) * myMigs)
			ac.misses[stats.Cold] += c.Pages * int64(float64(c.C)+churn)
			ac.misses[stats.ConfCapc] += c.Pages * int64(float64(c.F-c.C)-churn+(1-racShare)*homeLoss)
			ac.misses[stats.RAC] += c.Pages * int64(float64(c.R)+racShare*homeLoss)
			ac.misses[stats.Home] -= c.Pages * int64(homeLoss)
		}
		if adopted > pool {
			adopted = pool
		}
		ac.poolPages = adopted
	}
	// Home may go negative here (MIG-NUMA home loss); Predict folds the
	// interval home-miss tally in before clamping.
	for i := range ac.misses {
		if i != int(stats.Home) && ac.misses[i] < 0 {
			ac.misses[i] = 0
		}
	}
}

// denials solves for how many relocation interrupts AS-COMA's additive
// back-off denies before the escalating threshold outruns a page's
// refetch supply: the largest d with d*theta0 + inc*d*(d-1)/2 <= refetches.
func denials(refetches, theta0, inc int64) int64 {
	var d int64
	budget := refetches
	th := theta0
	for budget >= th && d < 64 {
		budget -= th
		th += inc
		d++
	}
	return d
}

// reuseAtLeast returns how many reuse episodes of node np's remote pages
// have an LRU stack distance of at least w pages — the episodes that
// refault when the page pool holds w pages. The straddling histogram
// bucket is interpolated linearly.
func reuseAtLeast(np *workload.NodeProfile, w int64) float64 {
	var total float64
	for k := 0; k < len(np.ReuseHist); k++ {
		if np.ReuseHist[k] == 0 {
			continue
		}
		lo := int64(1) << uint(k)
		if k == 0 {
			lo = 1
		}
		hi := int64(2) << uint(k) // exclusive
		switch {
		case lo >= w:
			total += float64(np.ReuseHist[k])
		case hi <= w:
			// all below; contributes nothing
		default:
			frac := float64(hi-w) / float64(hi-lo)
			total += float64(np.ReuseHist[k]) * frac
		}
	}
	return total
}
