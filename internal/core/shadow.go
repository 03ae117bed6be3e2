package core

import (
	"math/bits"

	"ascoma/internal/params"
)

// numArchs counts the architectures New builds: params.CCNUMA through
// params.MIGNUMA.
const numArchs = int(params.MIGNUMA) + 1

// ArchSet is a set of architectures, one bit per params.Arch.
type ArchSet uint8

// allArchs holds every architecture New builds.
const allArchs = ArchSet(1)<<numArchs - 1

// Has reports whether a is in the set.
func (s ArchSet) Has(a params.Arch) bool { return a >= 0 && int(a) < numArchs && s&(1<<a) != 0 }

// With returns the set with a added.
func (s ArchSet) With(a params.Arch) ArchSet { return s | 1<<a }

// Without returns the set with a removed.
func (s ArchSet) Without(a params.Arch) ArchSet { return s &^ (1 << a) }

// SCOMAFirst reports whether architecture a maps a node's first faulting
// remote page in S-COMA mode (false for an unknown architecture). A node's
// free pool holds at least one page at its first remote fault, so two
// architectures that differ here take different branches there: a run of
// one never certifies the other (see Set). RunAll's schedule uses this to
// tell which cells an in-flight run could still cover.
func SCOMAFirst(a params.Arch) bool {
	if a < 0 || int(a) >= numArchs {
		return false
	}
	p := params.Default()
	return New(a, &p).InitialSCOMA(1, 0)
}

// Set is one node's policy together with a shadow copy of every other
// architecture's policy. The machine asks each decision through the set;
// the primary policy answers, and the same query goes to every shadow still
// live. A shadow dies at the first decision whose outcome differs from the
// primary's. Outcomes are compared as the machine branches on them, not as
// raw return values: relocation, for instance, is one outcome,
// RelocationEnabled() && refetches >= Threshold(), so CC-NUMA (relocation
// off, threshold 1<<30) agrees with VC-NUMA while no page's refetch count
// reaches VC-NUMA's threshold. Every Note* call reaches the live shadows too, so a shadow's
// state is exactly the state its own run would have reached. Same reports
// the survivors; see machine.SameArchs for why they are exact.
//
// The policies are values inside the set, so a set embedded in a pooled
// node allocates nothing per run. A Set must not be copied after Reset:
// it points into itself.
type Set struct {
	pol  Policy           // the primary: its answers drive the machine
	all  [numArchs]Policy // all[a] is this set's own value for architecture a
	live ArchSet          // shadows that agreed on every decision so far

	cc ccnuma
	sc scoma
	rn rnuma
	vc vcnuma
	as ASCOMA
	mg mignuma
}

// Reset prepares the set for a run of arch on p, as New would build the
// policy, with the set's AS-COMA ablated as v says. The set's own arch
// value decides. With the full AS-COMA it shadows every other
// architecture; with an ablated one it shadows nothing and certifies
// nothing, because no architecture's run matches an ablation's. arch must
// be a known architecture.
func (s *Set) Reset(arch params.Arch, p *params.Params, v ASCOMAVariant) {
	s.cc = ccnuma{}
	s.sc = scoma{}
	s.rn = rnuma{threshold: p.RefetchThreshold}
	s.vc = makeVCNUMA(p)
	s.as = makeASCOMA(p, v)
	s.mg = makeMIGNUMA(p)
	s.all = [numArchs]Policy{&s.cc, &s.sc, &s.rn, &s.vc, &s.as, &s.mg}
	s.pol = s.all[arch]
	s.live = allArchs &^ (1 << arch)
	if v != FullASCOMA {
		s.live = 0
	}
}

// Primary returns the policy that decides. Probes that read its state
// (threshold samples, trace events) run only in runs that certify
// nothing, so they need no shadow.
func (s *Set) Primary() Policy { return s.pol }

// drop kills the shadow of architecture a.
func (s *Set) drop(a int) { s.live &^= 1 << a }

// lowest returns the lowest architecture in a non-empty set.
func lowest(l ArchSet) int { return bits.TrailingZeros8(uint8(l)) }

// InitialSCOMA asks whether a faulting remote page maps in S-COMA mode.
func (s *Set) InitialSCOMA(freePages, freeMin int) bool {
	v := s.pol.InitialSCOMA(freePages, freeMin)
	for l := s.live; l != 0; l &= l - 1 {
		if a := lowest(l); s.all[a].InitialSCOMA(freePages, freeMin) != v {
			s.drop(a)
		}
	}
	return v
}

// PureSCOMA asks whether a page must be backed locally: at a fault that
// found no S-COMA page, and at an eviction (unmap instead of downgrade).
func (s *Set) PureSCOMA() bool {
	v := s.pol.PureSCOMA()
	for l := s.live; l != 0; l &= l - 1 {
		if a := lowest(l); s.all[a].PureSCOMA() != v {
			s.drop(a)
		}
	}
	return v
}

// Relocates asks whether a remote refetch that the home counted
// refetches times raises a relocation interrupt.
func (s *Set) Relocates(refetches int) bool {
	v := relocates(s.pol, refetches)
	for l := s.live; l != 0; l &= l - 1 {
		if a := lowest(l); relocates(s.all[a], refetches) != v {
			s.drop(a)
		}
	}
	return v
}

func relocates(p Policy, refetches int) bool {
	return p.RelocationEnabled() && refetches >= p.Threshold()
}

// Migrates asks whether a relocation interrupt migrates the page's home
// (a Migrator that migrates) rather than replicating the page.
func (s *Set) Migrates() bool {
	v := migrates(s.pol)
	for l := s.live; l != 0; l &= l - 1 {
		if a := lowest(l); migrates(s.all[a]) != v {
			s.drop(a)
		}
	}
	return v
}

func migrates(p Policy) bool {
	mig, ok := p.(Migrator)
	return ok && mig.Migrates()
}

// AllowHotEviction asks whether an upgrade that found no free page may
// evict a victim whose reference bit is set.
func (s *Set) AllowHotEviction() bool {
	v := s.pol.AllowHotEviction()
	for l := s.live; l != 0; l &= l - 1 {
		if a := lowest(l); s.all[a].AllowHotEviction() != v {
			s.drop(a)
		}
	}
	return v
}

// NoteDaemonPass reports a pageout-daemon pass and returns the primary's
// interval scale; a shadow that scales differently dies.
func (s *Set) NoteDaemonPass(freeAfter, freeTarget, reclaimed, scanned int) int64 {
	v := s.pol.NoteDaemonPass(freeAfter, freeTarget, reclaimed, scanned)
	for l := s.live; l != 0; l &= l - 1 {
		if a := lowest(l); s.all[a].NoteDaemonPass(freeAfter, freeTarget, reclaimed, scanned) != v {
			s.drop(a)
		}
	}
	return v
}

// NoteUpgradeBlocked reports an upgrade abandoned for want of a page.
func (s *Set) NoteUpgradeBlocked() {
	s.pol.NoteUpgradeBlocked()
	for l := s.live; l != 0; l &= l - 1 {
		s.all[lowest(l)].NoteUpgradeBlocked()
	}
}

// NoteEviction reports a replaced S-COMA page.
func (s *Set) NoteEviction(victimHits uint32, cachedPages int) {
	s.pol.NoteEviction(victimHits, cachedPages)
	for l := s.live; l != 0; l &= l - 1 {
		s.all[lowest(l)].NoteEviction(victimHits, cachedPages)
	}
}

// NoteMigration reports a completed migration. Only a migrating primary
// gets here, and every live shadow agreed that it migrates.
func (s *Set) NoteMigration() {
	s.pol.(Migrator).NoteMigration()
	for l := s.live; l != 0; l &= l - 1 {
		s.all[lowest(l)].(Migrator).NoteMigration()
	}
}

// Same returns the architectures whose policies made every decision the
// primary made and counted the same thrash events, so far.
func (s *Set) Same() ArchSet {
	same, t := s.live, s.pol.ThrashEvents()
	for l := s.live; l != 0; l &= l - 1 {
		if a := lowest(l); s.all[a].ThrashEvents() != t {
			same &^= 1 << a
		}
	}
	return same
}
