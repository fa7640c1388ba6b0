package scenario

import (
	"context"
	"encoding/json"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

// mapStore is an in-memory Store for executor-level cache tests: it counts
// traffic so tests can assert "zero simulations" directly — every
// simulation the executor performs ends in exactly one Put.
type mapStore struct {
	mu               sync.Mutex
	m                map[string]Indexes
	gets, hits, puts atomic.Int64
	failGet, failPut bool
}

func newMapStore() *mapStore { return &mapStore{m: make(map[string]Indexes)} }

func (s *mapStore) Get(key string) (Indexes, bool, error) {
	s.gets.Add(1)
	if s.failGet {
		return Indexes{}, false, errors.New("mapStore: injected get failure")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	idx, ok := s.m[key]
	if ok {
		s.hits.Add(1)
	}
	return idx, ok, nil
}

func (s *mapStore) Put(key string, idx Indexes) error {
	s.puts.Add(1)
	if s.failPut {
		return errors.New("mapStore: injected put failure")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m[key] = idx
	return nil
}

// TestWarmCachePerformsZeroSimulations is the acceptance contract: a
// second run of the same spec against a warm cache simulates nothing (Put
// count stays zero, every Get hits) and reproduces the report
// byte-identically.
func TestWarmCachePerformsZeroSimulations(t *testing.T) {
	sp := testSpec()
	jobs := int64(len(sp.Instances()) * sp.Runs)
	bare, err := RunContext(context.Background(), sp, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}

	cache := newMapStore()
	cold, err := RunContext(context.Background(), sp, Options{Workers: 4, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if got := cache.puts.Load(); got != jobs {
		t.Fatalf("cold sweep stored %d results, want one per grid cell (%d)", got, jobs)
	}
	if got := cache.hits.Load(); got != 0 {
		t.Fatalf("cold sweep hit %d entries in an empty cache", got)
	}

	warm, err := RunContext(context.Background(), sp, Options{Workers: 4, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if got := cache.puts.Load(); got != jobs {
		t.Fatalf("warm sweep simulated: Put count went from %d to %d", jobs, got)
	}
	if got := cache.hits.Load(); got != jobs {
		t.Fatalf("warm sweep hit %d entries, want all %d", got, jobs)
	}

	bareJSON, _ := json.Marshal(bare)
	for name, rep := range map[string]*Report{"cold": cold, "warm": warm} {
		if got, _ := json.Marshal(rep); string(got) != string(bareJSON) {
			t.Fatalf("%s cached report differs from the uncached run:\n%s\nvs\n%s", name, got, bareJSON)
		}
	}
}

// TestExecutorKeysMatchCellKey pins the executor to the public CellKey
// definition: pre-seeding a cache under CellKey addresses must make a
// sweep all-hits. Any divergence between the executor's internal hashing
// and CellKey would break cross-process cache sharing.
func TestExecutorKeysMatchCellKey(t *testing.T) {
	sp := testSpec()
	rep, err := RunContext(context.Background(), sp, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	cache := newMapStore()
	for c, inst := range sp.Instances() {
		for run := 0; run < sp.Runs; run++ {
			key, err := CellKey(inst, run)
			if err != nil {
				t.Fatal(err)
			}
			cache.m[key] = rep.Cells[c].Runs[run]
		}
	}
	replay, err := RunContext(context.Background(), sp, Options{Workers: 2, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if cache.puts.Load() != 0 {
		t.Fatalf("executor missed %d pre-seeded CellKey entries", cache.puts.Load())
	}
	a, _ := json.Marshal(rep)
	b, _ := json.Marshal(replay)
	if string(a) != string(b) {
		t.Fatal("replay from pre-seeded CellKey entries differs from the direct run")
	}
}

// TestCancelledSweepResumesFromCache is the resumability contract: results
// computed before a cancellation stay cached, and the re-run completes the
// sweep reusing every one of them.
func TestCancelledSweepResumesFromCache(t *testing.T) {
	sp := testSpec()
	sp.Runs = 50 // enough grid positions that cancellation lands mid-sweep
	jobs := int64(len(sp.Instances()) * sp.Runs)

	cache := newMapStore()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var fired atomic.Bool
	_, err := RunContext(ctx, sp, Options{
		Workers: 4,
		Cache:   cache,
		Progress: func(ProgressEvent) {
			if fired.CompareAndSwap(false, true) {
				cancel()
			}
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	cached := cache.puts.Load()
	if cached == 0 || cached >= jobs {
		t.Fatalf("cancelled sweep cached %d of %d results, want some but not all", cached, jobs)
	}

	cache.hits.Store(0)
	resumed, err := RunContext(context.Background(), sp, Options{Workers: 4, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if got := cache.hits.Load(); got != cached {
		t.Fatalf("re-run reused %d cached results, want all %d", got, cached)
	}
	if got := cache.puts.Load(); got != jobs {
		t.Fatalf("after resume the cache holds %d results, want the full grid (%d)", got, jobs)
	}
	fresh, err := RunContext(context.Background(), sp, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(resumed)
	b, _ := json.Marshal(fresh)
	if string(a) != string(b) {
		t.Fatal("resumed report differs from an uncached run")
	}
}

// TestCacheFailuresDegradeToRecompute: a store whose reads and writes both
// fail must cost only reuse — the sweep itself succeeds and matches the
// uncached report.
func TestCacheFailuresDegradeToRecompute(t *testing.T) {
	sp := testSpec()
	broken := newMapStore()
	broken.failGet = true
	broken.failPut = true
	rep, err := RunContext(context.Background(), sp, Options{Workers: 4, Cache: broken})
	if err != nil {
		t.Fatalf("broken cache failed the sweep: %v", err)
	}
	fresh, err := RunContext(context.Background(), sp, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(rep)
	b, _ := json.Marshal(fresh)
	if string(a) != string(b) {
		t.Fatal("sweep over a broken cache drifted from the uncached run")
	}
}

// TestShardsShareCache: shards of one sweep address the same cells as the
// unsharded sweep, so a full run over a cache warmed by shard runs only
// simulates what the shards didn't cover.
func TestShardsShareCache(t *testing.T) {
	sp := testSpec()
	jobs := int64(len(sp.Instances()) * sp.Runs)
	cache := newMapStore()
	if _, err := RunContext(context.Background(), sp, Options{Workers: 2, Cache: cache, Shard: Shard{Index: 0, Count: 2}}); err != nil {
		t.Fatal(err)
	}
	shardCached := cache.puts.Load()
	if shardCached == 0 || shardCached >= jobs {
		t.Fatalf("shard 0/2 cached %d of %d cells", shardCached, jobs)
	}
	if _, err := RunContext(context.Background(), sp, Options{Workers: 2, Cache: cache}); err != nil {
		t.Fatal(err)
	}
	if got := cache.hits.Load(); got != shardCached {
		t.Fatalf("full sweep reused %d shard-cached cells, want %d", got, shardCached)
	}
	if got := cache.puts.Load(); got != jobs {
		t.Fatalf("cache holds %d cells after the full sweep, want %d", got, jobs)
	}
}

// TestCellKeySensitivity pins what the cell hash must and must not depend
// on: anything that can change a cell's result changes the key; grid
// bookkeeping that cannot (description, runs-per-cell, the surrounding
// policy matrix) does not — so growing a sweep never orphans the cells
// already computed.
func TestCellKeySensitivity(t *testing.T) {
	base := func() Instance { return testSpec().Instances()[0] }
	key := func(inst Instance, run int) string {
		t.Helper()
		k, err := CellKey(inst, run)
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	ref := key(base(), 0)
	if ref != key(base(), 0) {
		t.Fatal("CellKey is not deterministic")
	}
	if len(ref) != 64 {
		t.Fatalf("CellKey %q is not 64 hex chars", ref)
	}

	// Must change: run index, policy coordinates, world parameters.
	if key(base(), 1) == ref {
		t.Error("key ignores the run index")
	}
	inst := base()
	inst.Sched = "utilization-first"
	if key(inst, 0) == ref {
		t.Error("key ignores the scheduling policy")
	}
	inst = base()
	inst.Migration = "address-space"
	if key(inst, 0) == ref {
		t.Error("key ignores the migration strategy")
	}
	for name, mutate := range map[string]func(*Spec){
		"seed":     func(sp *Spec) { sp.Seed++ },
		"name":     func(sp *Spec) { sp.Name = "other" },
		"horizon":  func(sp *Spec) { sp.HorizonS *= 2 },
		"tasks":    func(sp *Spec) { sp.Workload.Tasks++ },
		"machines": func(sp *Spec) { sp.Machines.Classes[0].Count++ },
		"faults":   func(sp *Spec) { sp.Faults = nil },
	} {
		sp := testSpec()
		mutate(sp)
		if key(sp.Instances()[0], 0) == ref {
			t.Errorf("key ignores %s", name)
		}
	}

	// Must not change: commentary and grid shape.
	for name, mutate := range map[string]func(*Spec){
		"description":   func(sp *Spec) { sp.Description = "annotated" },
		"runs":          func(sp *Spec) { sp.Runs = 99 },
		"policy-matrix": func(sp *Spec) { sp.Policies.Migration = append(sp.Policies.Migration, "checkpoint") },
		"defaults":      func(sp *Spec) { sp.Workload.ImageMiB = 0 }, // unset normalizes to the default (1)
	} {
		sp := testSpec()
		mutate(sp)
		if key(sp.Instances()[0], 0) != ref {
			t.Errorf("key depends on %s, which cannot affect the cell result", name)
		}
	}
}
