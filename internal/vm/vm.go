// Package vm models one node's virtual-memory kernel state: the page table,
// the free page pool with the 4.4BSD-style free_min/free_target thresholds,
// the S-COMA page cache bookkeeping (per-block valid bits), and the
// second-chance ("clock") victim selection the pageout daemon uses:
// "Cold pages are detected using a second chance algorithm: the TLB
// reference bit associated with each S-COMA page is reset each time it is
// considered for eviction by the pageout daemon. If the reference bit is
// zero when the pageout daemon next runs, the page is considered cold."
package vm

import (
	"fmt"

	"ascoma/internal/addr"
	"ascoma/internal/dense"
	"ascoma/internal/mem"
	"ascoma/internal/obs"
	"ascoma/internal/params"
)

// Mode is the mapping mode of a page at this node.
type Mode uint8

const (
	// ModeNone marks an unmapped PTE (never returned by Lookup).
	ModeNone Mode = iota
	// ModeHome: the page's home is this node; accesses hit local DRAM.
	ModeHome
	// ModePrivate: node-private (non-shared) data; always local.
	ModePrivate
	// ModeNUMA: remote page mapped in CC-NUMA mode; misses go remote
	// (through the RAC).
	ModeNUMA
	// ModeSCOMA: remote page backed by a local page-cache page; misses
	// to valid blocks are satisfied from local DRAM.
	ModeSCOMA
)

// String returns the mode name.
func (m Mode) String() string {
	switch m {
	case ModeNone:
		return "none"
	case ModeHome:
		return "home"
	case ModePrivate:
		return "private"
	case ModeNUMA:
		return "numa"
	case ModeSCOMA:
		return "scoma"
	}
	return fmt.Sprintf("Mode(%d)", uint8(m))
}

// PTE is one node's mapping state for a page.
type PTE struct {
	Page addr.Page
	Mode Mode
	Home int // the page's home node

	// Valid holds per-block valid bits when Mode == ModeSCOMA ("the valid
	// bit associated with each cache line in the page is set to invalid
	// to indicate that, while the page mapping is valid, no remote data
	// is actually cached in the local page yet").
	Valid uint32

	// Owned holds per-block ownership bits when Mode == ModeSCOMA: blocks
	// this node holds in Modified state may absorb writes locally.
	Owned uint32

	// RefBit is the TLB reference bit used by second chance.
	RefBit bool

	// SComaHits counts misses satisfied from the page cache since this
	// page entered S-COMA mode — the savings the page has earned.
	// VC-NUMA's per-S-COMA-page "local refetch counter" feeds its
	// break-even thrashing detector from this.
	SComaHits uint32

	// Tier is the memory tier holding this page's frame (0 = fastest; see
	// internal/mem); always 0 on one-tier memories and for ModeNUMA
	// pages, which hold no frame.
	Tier uint8

	ring int // index in the S-COMA clock ring, -1 if not enrolled
}

// BlockValid reports whether block index i (0..31) is valid in the page
// cache.
func (p *PTE) BlockValid(i int) bool { return p.Valid&(1<<uint(i)) != 0 }

// SetBlockValid marks block index i valid.
func (p *PTE) SetBlockValid(i int) { p.Valid |= 1 << uint(i) }

// ClearBlockValid invalidates block index i (and drops any ownership).
func (p *PTE) ClearBlockValid(i int) {
	p.Valid &^= 1 << uint(i)
	p.Owned &^= 1 << uint(i)
}

// BlockOwned reports whether this node owns block index i.
func (p *PTE) BlockOwned(i int) bool { return p.Owned&(1<<uint(i)) != 0 }

// SetBlockOwned marks block index i owned (Modified here).
func (p *PTE) SetBlockOwned(i int) { p.Owned |= 1 << uint(i) }

// ClearBlockOwned downgrades block index i to a clean shared copy.
func (p *PTE) ClearBlockOwned(i int) { p.Owned &^= 1 << uint(i) }

// ValidBlocks returns the number of valid page-cache blocks.
func (p *PTE) ValidBlocks() int {
	n := 0
	for v := p.Valid; v != 0; v &= v - 1 {
		n++
	}
	return n
}

// VM is one node's kernel memory state.
type VM struct {
	Node       int
	TotalPages int // physical pages on this node
	HomePages  int // pages pinned holding home (and private) data
	free       int // current free pool size
	lowFree    int // the lowest free has been since Reset (its low-water mark)

	freeMin    int
	freeTarget int

	// pt is keyed by the dense page index: a PTE lives value-typed inside
	// its chunk, so installing a mapping allocates nothing beyond the
	// (amortized) chunk, and *PTE pointers handed out by Lookup stay valid
	// for the life of the VM. Mode == ModeNone marks a free slot.
	ptCount int
	pt      dense.Table[PTE]
	ring    []*PTE // S-COMA pages, scanned by the clock hand
	hand    int

	// rec is the attached flight recorder (nil = observability off). The
	// machine stamps its clock before every kernel-path call, so pool
	// events emitted here carry the current simulated cycle. poolLow is
	// the hysteresis state for EvPoolLow/EvPoolOK edges.
	rec     *obs.Recorder
	poolLow bool

	// Memory-tier frame accounting (see internal/mem): tierCap partitions
	// TotalPages across nTiers >= 1 tiers, tierUsed counts frames in use
	// per tier (home, private, and S-COMA pages alike), and homeMapped
	// replays the fast-first layout of the bulk ReserveHome reservation so
	// each MapLocal-installed page lands in the tier its frame occupies.
	nTiers     int
	tierCap    [mem.MaxTiers]int
	tierUsed   [mem.MaxTiers]int
	homeMapped int
}

// New builds a node VM with the given physical page count and thresholds
// expressed as percentages of total memory. Its memory is one tier
// holding every page until ConfigureTiers says otherwise.
func New(node, totalPages, freeMinPct, freeTargetPct int) *VM {
	v := &VM{Node: node}
	v.Reset(totalPages, freeMinPct, freeTargetPct)
	return v
}

// Reset returns the VM to its just-built state with the given geometry,
// retaining the page-table chunk storage for reuse by a later run. Every
// previously handed-out *PTE is invalidated (the caller must drop its
// translation caches). Reset also readies a zero VM with only Node set.
func (v *VM) Reset(totalPages, freeMinPct, freeTargetPct int) {
	v.TotalPages = totalPages
	v.HomePages = 0
	v.free = totalPages
	v.lowFree = totalPages
	v.freeMin, v.freeTarget = Thresholds(totalPages, freeMinPct, freeTargetPct)
	v.ptCount = 0
	v.pt.Reset()
	v.ring = v.ring[:0]
	v.hand = 0
	v.poolLow = false
	v.nTiers = 1
	v.tierCap = [mem.MaxTiers]int{totalPages}
	v.tierUsed = [mem.MaxTiers]int{}
	v.homeMapped = 0
}

// Thresholds returns free_min and free_target in pages for a node of
// totalPages physical pages, given as percentages of it. free_min is at
// least one page and free_target at least free_min.
func Thresholds(totalPages, freeMinPct, freeTargetPct int) (freeMin, freeTarget int) {
	freeMin = max(totalPages*freeMinPct/100, 1)
	freeTarget = max(totalPages*freeTargetPct/100, freeMin)
	return freeMin, freeTarget
}

// ConfigureTiers partitions the node's physical pages across memory tiers
// by capacity share (fastest first, the remainder of the integer split
// going to the last tier). specs must be non-empty and have passed
// mem.ValidateTiers. It must be called before any page is reserved or
// mapped.
func (v *VM) ConfigureTiers(specs []mem.TierSpec) {
	v.nTiers = len(specs)
	v.tierCap = [mem.MaxTiers]int{}
	v.tierUsed = [mem.MaxTiers]int{}
	v.homeMapped = 0
	rem := v.TotalPages
	for i, ts := range specs {
		c := v.TotalPages * ts.CapacityPct / 100
		if i == len(specs)-1 {
			c = rem
		}
		v.tierCap[i] = c
		rem -= c
	}
}

// NumTiers returns the configured tier count.
func (v *VM) NumTiers() int { return v.nTiers }

// TierPages returns the number of frames in use in tier i.
func (v *VM) TierPages(i int) int { return v.tierUsed[i] }

// TierCap returns tier i's frame capacity.
func (v *VM) TierCap(i int) int { return v.tierCap[i] }

// allocFrame claims a frame in the fastest tier with headroom (falling
// back to the last tier) and returns its index.
func (v *VM) allocFrame() uint8 {
	for i := 0; i < v.nTiers-1; i++ {
		if v.tierUsed[i] < v.tierCap[i] {
			v.tierUsed[i]++
			return uint8(i)
		}
	}
	v.tierUsed[v.nTiers-1]++
	return uint8(v.nTiers - 1)
}

// freeFrame releases a frame back to tier t.
func (v *VM) freeFrame(t uint8) { v.tierUsed[t]-- }

// homeTier returns the tier of the next reserved home/private frame: the
// bulk ReserveHome reservation fills tiers fastest-first, so the k-th
// MapLocal-installed page occupies the tier containing slot k of that
// layout.
func (v *VM) homeTier() uint8 {
	k := v.homeMapped
	v.homeMapped++
	cum := 0
	for i := 0; i < v.nTiers; i++ {
		cum += v.tierCap[i]
		if k < cum {
			return uint8(i)
		}
	}
	return uint8(v.nTiers - 1)
}

// Promote moves a page's frame one tier up (toward tier 0). It fails when
// the page is already in the fastest tier or the target tier is full.
func (v *VM) Promote(pte *PTE) bool {
	t := int(pte.Tier)
	if t == 0 || v.tierUsed[t-1] >= v.tierCap[t-1] {
		return false
	}
	v.tierUsed[t-1]++
	v.tierUsed[t]--
	pte.Tier = uint8(t - 1)
	return true
}

// Demote moves a page's frame one tier down (toward the slowest tier). It
// fails when the page is already in the last tier or the target tier is
// full.
func (v *VM) Demote(pte *PTE) bool {
	t := int(pte.Tier)
	if t >= v.nTiers-1 || v.tierUsed[t+1] >= v.tierCap[t+1] {
		return false
	}
	v.tierUsed[t+1]++
	v.tierUsed[t]--
	pte.Tier = uint8(t + 1)
	return true
}

// SkipHand advances the clock hand past the page it points at. The
// pageout daemon uses it after demoting a victim in place: ClockScan
// leaves the hand on the victim, and a demoted page — still cold, still
// enrolled — must not be returned again in the same sweep.
func (v *VM) SkipHand() { v.hand++ }

// SetRecorder attaches a flight recorder for free-pool pressure events
// (nil detaches) and resets the pool-low hysteresis.
func (v *VM) SetRecorder(r *obs.Recorder) {
	v.rec = r
	v.poolLow = false
}

// notePool runs after every change to the free pool: it tracks the
// pool's low-water mark and emits pool-pressure edges with hysteresis: one
// EvPoolLow when the pool first drops below free_min, one EvPoolOK once it
// recovers to free_target — the same thresholds that gate the pageout
// daemon, so the two events bracket exactly the windows the daemon is
// fighting pressure.
func (v *VM) notePool() {
	v.lowFree = min(v.lowFree, v.free)
	if v.rec == nil {
		return
	}
	if !v.poolLow && v.free < v.freeMin {
		v.poolLow = true
		v.rec.Emit(obs.EvPoolLow, v.Node, uint32(v.free), uint32(v.freeMin))
	} else if v.poolLow && v.free >= v.freeTarget {
		v.poolLow = false
		v.rec.Emit(obs.EvPoolOK, v.Node, uint32(v.free), uint32(v.freeTarget))
	}
}

// ReserveHome pins n pages for home/private data, removing them from the
// free pool. It returns an error if the node does not have that many free
// pages.
func (v *VM) ReserveHome(n int) error {
	if n > v.free {
		return fmt.Errorf("vm: node %d cannot reserve %d home pages with %d free", v.Node, n, v.free)
	}
	v.HomePages += n
	v.free -= n
	// The resident set fills tiers fastest-first; homeTier replays this
	// layout per installed mapping.
	rem := n
	for i := 0; i < v.nTiers && rem > 0; i++ {
		take := v.tierCap[i] - v.tierUsed[i]
		if take > rem {
			take = rem
		}
		v.tierUsed[i] += take
		rem -= take
	}
	v.notePool()
	return nil
}

// Free returns the current free pool size.
func (v *VM) Free() int { return v.free }

// LowFree returns the smallest free pool size since Reset.
func (v *VM) LowFree() int { return v.lowFree }

// FreeMin returns the free_min threshold in pages.
func (v *VM) FreeMin() int { return v.freeMin }

// FreeTarget returns the free_target threshold in pages.
func (v *VM) FreeTarget() int { return v.freeTarget }

// Lookup returns the PTE for page p, or nil if unmapped (page fault).
func (v *VM) Lookup(p addr.Page) *PTE {
	idx, ok := p.Index()
	if !ok {
		return nil
	}
	pte := v.pt.Get(int(idx))
	if pte == nil || pte.Mode == ModeNone {
		return nil
	}
	return pte
}

// install claims the slot for page p and resets every field (the slot may
// hold stale state from a mapping unmapped earlier).
func (v *VM) install(p addr.Page, mode Mode, home int) *PTE {
	pte := v.pt.GetOrCreate(int(p.MustIndex()))
	if pte.Mode == ModeNone {
		v.ptCount++
	}
	*pte = PTE{Page: p, Mode: mode, Home: home, ring: -1}
	return pte
}

// MapLocal installs a home or private mapping (no page-cache page is
// consumed: home pages were reserved up front).
func (v *VM) MapLocal(p addr.Page, mode Mode) *PTE {
	if mode != ModeHome && mode != ModePrivate {
		panic("vm: MapLocal requires ModeHome or ModePrivate")
	}
	pte := v.install(p, mode, v.Node)
	pte.Tier = v.homeTier()
	return pte
}

// MapNUMA installs a CC-NUMA mapping of a remote page (no local storage).
func (v *VM) MapNUMA(p addr.Page, home int) *PTE {
	return v.install(p, ModeNUMA, home)
}

// MapSCOMA installs an S-COMA mapping backed by a page from the free pool.
// It fails (returning nil) when the pool is empty; the caller must first
// evict a victim.
func (v *VM) MapSCOMA(p addr.Page, home int) *PTE {
	if v.free == 0 {
		return nil
	}
	v.free--
	pte := v.install(p, ModeSCOMA, home)
	pte.Tier = v.allocFrame()
	v.enroll(pte)
	v.notePool()
	return pte
}

// Upgrade converts an existing CC-NUMA mapping to S-COMA mode, consuming a
// free page. It fails (returning false) when the pool is empty.
func (v *VM) Upgrade(pte *PTE) bool {
	if pte.Mode != ModeNUMA {
		panic("vm: Upgrade requires a ModeNUMA page")
	}
	if v.free == 0 {
		return false
	}
	v.free--
	pte.Mode = ModeSCOMA
	pte.Valid = 0
	pte.Owned = 0
	pte.SComaHits = 0
	pte.RefBit = true
	pte.Tier = v.allocFrame()
	v.enroll(pte)
	v.notePool()
	return true
}

// Downgrade converts an S-COMA mapping back to CC-NUMA mode ("remapped back
// to its home global physical address"), returning its page to the free
// pool. The caller is responsible for the flush side effects.
func (v *VM) Downgrade(pte *PTE) {
	if pte.Mode != ModeSCOMA {
		panic("vm: Downgrade requires a ModeSCOMA page")
	}
	v.unenroll(pte)
	pte.Mode = ModeNUMA
	pte.Valid = 0
	pte.Owned = 0
	pte.SComaHits = 0
	v.freeFrame(pte.Tier)
	pte.Tier = 0
	v.free++
	v.notePool()
}

// AdoptHomePage pins one free page to hold a newly migrated-in home page,
// returning the tier its frame was allocated in. It fails (returning
// false) when the pool is empty.
func (v *VM) AdoptHomePage() (tier uint8, ok bool) {
	if v.free == 0 {
		return 0, false
	}
	v.free--
	v.HomePages++
	tier = v.allocFrame()
	v.notePool()
	return tier, true
}

// ReleaseHomePage frees the physical page (in the given tier) of a home
// page that migrated away.
func (v *VM) ReleaseHomePage(tier uint8) {
	v.HomePages--
	v.freeFrame(tier)
	v.free++
	v.notePool()
}

// Unmap removes the page's mapping entirely, so the next access faults
// again. Pure S-COMA uses this after replacing a page: the evicted page has
// no CC-NUMA fallback mapping and must be re-backed by a local page before
// it can be accessed again.
func (v *VM) Unmap(pte *PTE) {
	if pte.Mode == ModeSCOMA {
		panic("vm: Unmap of a page still holding a page-cache page (Downgrade first)")
	}
	pte.Mode = ModeNone
	v.ptCount--
}

func (v *VM) enroll(pte *PTE) {
	pte.ring = len(v.ring)
	v.ring = append(v.ring, pte)
}

func (v *VM) unenroll(pte *PTE) {
	i := pte.ring
	if i < 0 {
		return
	}
	last := len(v.ring) - 1
	v.ring[i] = v.ring[last]
	v.ring[i].ring = i
	v.ring = v.ring[:last]
	pte.ring = -1
	if v.hand > last {
		v.hand = 0
	}
}

// SComaPages returns the number of pages currently mapped in S-COMA mode.
func (v *VM) SComaPages() int { return len(v.ring) }

// ClockScan runs the second-chance hand over at most maxScan S-COMA pages:
// referenced pages get their bit cleared and are skipped; the first
// unreferenced page is returned as the victim. scanned reports pages
// examined (the daemon's work, charged as kernel overhead).
func (v *VM) ClockScan(maxScan int) (victim *PTE, scanned int) {
	n := len(v.ring)
	if n == 0 {
		return nil, 0
	}
	if maxScan > n {
		maxScan = n
	}
	for scanned < maxScan {
		if v.hand >= len(v.ring) {
			v.hand = 0
		}
		pte := v.ring[v.hand]
		scanned++
		if pte.RefBit {
			pte.RefBit = false
			v.hand++
			continue
		}
		return pte, scanned
	}
	return nil, scanned
}

// ForceVictim returns the page under the clock hand regardless of its
// reference bit (clearing bits as it passes, so hot pages still age). Pure
// S-COMA needs this: a faulting page must be mapped even when every cached
// page is hot.
func (v *VM) ForceVictim() *PTE {
	n := len(v.ring)
	if n == 0 {
		return nil
	}
	// One second-chance pass, then take whatever the hand points at.
	for i := 0; i < n; i++ {
		if v.hand >= len(v.ring) {
			v.hand = 0
		}
		pte := v.ring[v.hand]
		if pte.RefBit {
			pte.RefBit = false
			v.hand++
			continue
		}
		return pte
	}
	if v.hand >= len(v.ring) {
		v.hand = 0
	}
	return v.ring[v.hand]
}

// PageOfBlock returns the PTE covering block b, or nil.
func (v *VM) PageOfBlock(b addr.Block) *PTE { return v.Lookup(b.Page()) }

// Pages returns the number of installed mappings (for tests).
func (v *VM) Pages() int { return v.ptCount }

// BlocksPerPageMask is the all-valid mask for a page's 32 blocks.
const BlocksPerPageMask uint32 = 1<<params.BlocksPerPage - 1
