package runcache

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ascoma"
)

func testCfg(pressure int) ascoma.Config {
	return ascoma.Config{Arch: ascoma.ASCOMA, Workload: "uniform", Pressure: pressure, Scale: 32}
}

func TestKeyOf(t *testing.T) {
	k1, err := KeyOf(testCfg(50))
	if err != nil {
		t.Fatal(err)
	}
	k2, err := KeyOf(testCfg(50))
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Errorf("identical configs hash differently: %s vs %s", k1, k2)
	}
	if k3, _ := KeyOf(testCfg(51)); k3 == k1 {
		t.Error("different pressures share a key")
	}
	p := testCfg(50)
	p.Params = ascoma.DefaultParams()
	p.Params.RefetchThreshold++
	if k4, _ := KeyOf(p); k4 == k1 {
		t.Error("different params share a key")
	}
	// Scale 0 and 1 are the same problem size and must share a key.
	a, b := testCfg(50), testCfg(50)
	a.Scale, b.Scale = 0, 1
	ka, _ := KeyOf(a)
	kb, _ := KeyOf(b)
	if ka != kb {
		t.Error("scale 0 and scale 1 hash differently")
	}
}

// fakeResult builds a distinguishable dummy result without simulating.
func fakeResult(tag int) *ascoma.Result {
	res, err := ascoma.Run(ascoma.Config{Arch: ascoma.CCNUMA, Workload: "uniform", Pressure: 50, Scale: 64})
	if err != nil {
		panic(err)
	}
	res.Pressure = tag // repurposed as a marker; cached values are opaque
	return res
}

func TestCacheLRUEviction(t *testing.T) {
	c, err := New(2, "")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	fill := func(tag int) {
		_, err := c.Do(ctx, Key(fmt.Sprintf("k%d", tag)), func(context.Context) (*ascoma.Result, error) {
			return fakeResult(tag), nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	fill(1)
	fill(2)
	fill(1) // touch k1 so k2 is the LRU victim
	fill(3) // evicts k2
	if c.Len() != 2 {
		t.Fatalf("cache holds %d entries, want 2", c.Len())
	}
	st := c.Stats()
	// k2 must re-simulate.
	fill(2)
	if got := c.Stats().Sims; got != st.Sims+1 {
		t.Errorf("evicted entry did not re-simulate: sims %d -> %d", st.Sims, got)
	}
	// k1 was touched and must still be resident... but filling k2 evicted
	// either k1 or k3 (k1 is older after its last touch). The LRU order
	// after fill(3) is [3, 1]; filling 2 evicts 1. So k3 must hit.
	st = c.Stats()
	fill(3)
	if got := c.Stats().MemHits; got != st.MemHits+1 {
		t.Error("most-recently-used entry was evicted")
	}
}

func TestSingleflightDedupe(t *testing.T) {
	c, err := New(16, "")
	if err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int64
	gate := make(chan struct{})
	fn := func(context.Context) (*ascoma.Result, error) {
		calls.Add(1)
		<-gate
		return fakeResult(1), nil
	}
	const n = 8
	var wg sync.WaitGroup
	results := make([]*ascoma.Result, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := c.Do(context.Background(), "shared", fn)
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = res
		}(i)
	}
	// Wait until every goroutine is either the leader or parked on it.
	deadline := time.After(5 * time.Second)
	for calls.Load() == 0 {
		select {
		case <-deadline:
			t.Fatal("leader never started")
		default:
			time.Sleep(time.Millisecond)
		}
	}
	close(gate)
	wg.Wait()
	if got := calls.Load(); got != 1 {
		t.Errorf("fn ran %d times, want 1", got)
	}
	for i := 1; i < n; i++ {
		if results[i] != results[0] {
			t.Fatal("waiters did not share the leader's result")
		}
	}
	st := c.Stats()
	if st.Sims != 1 || st.Dedups == 0 {
		t.Errorf("stats = %+v, want 1 sim and >0 dedups", st)
	}
}

func TestSingleflightWaiterCancellation(t *testing.T) {
	c, err := New(16, "")
	if err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	started := make(chan struct{})
	go func() {
		c.Do(context.Background(), "slow", func(context.Context) (*ascoma.Result, error) { //nolint:errcheck
			close(started)
			<-gate
			return fakeResult(1), nil
		})
	}()
	<-started
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = c.Do(ctx, "slow", func(context.Context) (*ascoma.Result, error) {
		t.Error("waiter ran fn")
		return nil, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled waiter returned %v", err)
	}
	close(gate)
}

func TestErrorsNotCached(t *testing.T) {
	c, err := New(16, "")
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	_, err = c.Do(context.Background(), "k", func(context.Context) (*ascoma.Result, error) { return nil, boom })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	res, err := c.Do(context.Background(), "k", func(context.Context) (*ascoma.Result, error) { return fakeResult(1), nil })
	if err != nil || res == nil {
		t.Fatalf("retry after error failed: %v", err)
	}
}

func TestDiskLayerRoundTrip(t *testing.T) {
	dir := t.TempDir()
	cfg := testCfg(70)
	key, err := KeyOf(cfg)
	if err != nil {
		t.Fatal(err)
	}

	c1, err := New(16, dir)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := c1.Do(context.Background(), key, func(ctx context.Context) (*ascoma.Result, error) {
		return ascoma.RunContext(ctx, cfg)
	})
	if err != nil {
		t.Fatal(err)
	}
	if c1.Stats().Sims != 1 {
		t.Fatalf("stats after fill: %+v", c1.Stats())
	}

	// A second cache over the same directory — a fresh process — must load
	// from disk without simulating, bit-identically.
	c2, err := New(16, dir)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := c2.Do(context.Background(), key, func(context.Context) (*ascoma.Result, error) {
		t.Error("disk hit still simulated")
		return nil, errors.New("unreachable")
	})
	if err != nil {
		t.Fatal(err)
	}
	st := c2.Stats()
	if st.DiskHits != 1 || st.Sims != 0 {
		t.Errorf("stats after disk load: %+v", st)
	}
	fb, _ := json.Marshal(fresh.Machine)
	lb, _ := json.Marshal(loaded.Machine)
	if string(fb) != string(lb) {
		t.Error("disk round trip altered the statistics")
	}
	if fresh.ArchID != loaded.ArchID || !reflect.DeepEqual(fresh.Samples, loaded.Samples) {
		t.Error("disk round trip altered result metadata")
	}
}

func TestRunnerCachesAndBounds(t *testing.T) {
	cache, err := New(16, "")
	if err != nil {
		t.Fatal(err)
	}
	r := &Runner{Cache: cache, Jobs: 2}
	ctx := context.Background()
	cfg := testCfg(50)

	first, err := r.Run(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	second, err := r.Run(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if first != second {
		t.Error("second run was not a cache hit")
	}
	st := cache.Stats()
	if st.Sims != 1 || st.MemHits != 1 {
		t.Errorf("stats = %+v, want 1 sim + 1 hit", st)
	}
	if r.InFlight() != 0 {
		t.Errorf("in-flight = %d after completion", r.InFlight())
	}
}

func TestRunnerCancelledBeforeStart(t *testing.T) {
	r := &Runner{Jobs: 1}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := r.Run(ctx, testCfg(50)); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

func TestRunnerConcurrentIdenticalSimulateOnce(t *testing.T) {
	cache, err := New(16, "")
	if err != nil {
		t.Fatal(err)
	}
	r := &Runner{Cache: cache, Jobs: 4}
	cfg := testCfg(30)
	const n = 6
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := r.Run(context.Background(), cfg); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if st := cache.Stats(); st.Sims != 1 {
		t.Errorf("%d identical concurrent requests ran %d simulations, want 1 (%+v)", n, st.Sims, st)
	}
}

// TestReplyLivesWithEntry pins the stored-reply contract: encode runs once
// per resident entry, the bytes die with the entry (eviction) or its
// result (Put), a key never answers with another key's bytes, and a result
// that is not resident is encoded per call and stored nowhere.
func TestReplyLivesWithEntry(t *testing.T) {
	c := NewWithBackends(1)
	ctx := context.Background()
	encodes := 0
	encode := func(res *ascoma.Result) ([]byte, error) {
		encodes++
		return []byte(fmt.Sprintf("reply-%d-%d", res.Pressure, encodes)), nil
	}
	fill := func(key Key, tag int) *ascoma.Result {
		res, err := c.Do(ctx, key, func(context.Context) (*ascoma.Result, error) { return fakeResult(tag), nil })
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	reply := func(key Key, res *ascoma.Result) string {
		b, err := c.Reply(key, res, encode)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}

	a := fill("a", 1)
	if got, again := reply("a", a), reply("a", a); got != "reply-1-1" || again != got || encodes != 1 {
		t.Errorf("repeat replies %q, %q after %d encodes; want one stored reply-1-1", got, again, encodes)
	}
	b := fill("b", 2) // evicts a with its bytes
	if got := reply("b", b); got != "reply-2-2" {
		t.Errorf("b replied %q, want reply-2-2", got)
	}
	a = fill("a", 1) // evicts b; a is re-filled with no bytes
	if got := reply("a", a); got != "reply-1-3" {
		t.Errorf("a after eviction replied %q, want a fresh reply-1-3", got)
	}
	// A result not resident under the key: encoded per call, never stored.
	if got := reply("b", b); got != "reply-2-4" || reply("b", b) != "reply-2-5" {
		t.Errorf("non-resident b replied %q; want a fresh encode per call", got)
	}
	if got := reply("a", b); got != "reply-2-6" || reply("a", a) != "reply-1-3" {
		t.Errorf("a stale result under a resident key replied %q, or displaced a's bytes", got)
	}
	// Put replaces the result and drops its bytes.
	a2 := fakeResult(3)
	c.Put("a", a2)
	if got := reply("a", a2); got != "reply-3-7" {
		t.Errorf("a after Put replied %q, want reply-3-7", got)
	}
	// A failed encode stores nothing.
	fail := func(*ascoma.Result) ([]byte, error) { return nil, errors.New("boom") }
	c.Put("a", a)
	if _, err := c.Reply("a", a, fail); err == nil {
		t.Error("encode error was swallowed")
	}
	if got := reply("a", a); got != "reply-1-8" {
		t.Errorf("after a failed encode a replied %q, want reply-1-8", got)
	}
}

// TestRunnerReply: a cached run's reply is encoded once; a Runner with no
// cache encodes on every call.
func TestRunnerReply(t *testing.T) {
	r := &Runner{Cache: NewWithBackends(4), Jobs: 1}
	var encodes atomic.Int64
	encode := func(res *ascoma.Result) ([]byte, error) {
		encodes.Add(1)
		return json.Marshal(res.ExecTime)
	}
	ctx := context.Background()
	first, err := r.Reply(ctx, testCfg(50), encode)
	if err != nil {
		t.Fatal(err)
	}
	again, err := r.Reply(ctx, testCfg(50), encode)
	if err != nil {
		t.Fatal(err)
	}
	if string(first) != string(again) || encodes.Load() != 1 {
		t.Errorf("replies %s, %s after %d encodes; want one stored reply", first, again, encodes.Load())
	}
	if _, err := (&Runner{Jobs: 1}).Reply(ctx, testCfg(50), encode); err != nil || encodes.Load() != 2 {
		t.Errorf("uncached Reply: err %v after %d encodes, want a fresh encode", err, encodes.Load())
	}
}
