package machine

import (
	"fmt"

	"ascoma/internal/addr"
)

// coherenceChecker is an optional validation layer (Config.CheckCoherence):
// it shadows the protocol with per-block version numbers — every write
// grant advances the block's version; every fetch records the version the
// node received — and asserts that a locally satisfied access (L1, RAC, or
// page-cache hit) always observes the current version. A stale local hit
// means an invalidation was lost somewhere: the definition of a coherence
// bug. The checker models what the simulator otherwise abstracts away
// (data values) without altering timing.
type coherenceChecker struct {
	version map[addr.Block]uint64   // current version (writes bump it)
	held    []map[addr.Block]uint64 // per node: version last fetched
	errs    []string
}

func newCoherenceChecker(nodes int) *coherenceChecker {
	c := &coherenceChecker{
		version: make(map[addr.Block]uint64),
		held:    make([]map[addr.Block]uint64, nodes),
	}
	for i := range c.held {
		c.held[i] = make(map[addr.Block]uint64)
	}
	return c
}

// onWrite records a write by node to block b: the block's version advances
// and the writer holds the new version. Coherence must have removed every
// other holder (checked lazily at their next local hit).
func (c *coherenceChecker) onWrite(node int, b addr.Block) {
	c.version[b]++
	c.held[node][b] = c.version[b]
}

// onFetch records that node received the block's current data.
func (c *coherenceChecker) onFetch(node int, b addr.Block) {
	c.held[node][b] = c.version[b]
}

// onInvalidate drops the node's recorded copy.
func (c *coherenceChecker) onInvalidate(node int, b addr.Block) {
	delete(c.held[node], b)
}

// onLocalHit asserts the node's copy is current.
func (c *coherenceChecker) onLocalHit(node int, b addr.Block, site string) {
	have, ok := c.held[node][b]
	if !ok {
		c.fail(fmt.Sprintf("node %d: %s hit on block %v never fetched", node, site, b))
		return
	}
	if cur := c.version[b]; have != cur {
		c.fail(fmt.Sprintf("node %d: stale %s hit on block %v: holds v%d, current v%d",
			node, site, b, have, cur))
	}
}

func (c *coherenceChecker) fail(msg string) {
	if len(c.errs) < 16 {
		c.errs = append(c.errs, msg)
	}
}

// Err returns the first recorded violation, or nil.
func (c *coherenceChecker) Err() error {
	if len(c.errs) == 0 {
		return nil
	}
	return fmt.Errorf("machine: %d coherence violation(s); first: %s", len(c.errs), c.errs[0])
}
