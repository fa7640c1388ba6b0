package store

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"vce/internal/scenario"
)

// keyFor builds a valid-looking 64-hex key from a short tag.
func keyFor(tag string) string {
	const hexdigits = "0123456789abcdef"
	b := make([]byte, 64)
	for i := range b {
		b[i] = hexdigits[(len(tag)+i)%16]
	}
	copy(b, tag)
	return strings.Map(func(r rune) rune {
		if (r >= '0' && r <= '9') || (r >= 'a' && r <= 'f') {
			return r
		}
		return 'a'
	}, string(b))
}

func TestRoundTripExactFloats(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// Values chosen to be hostile to lossy serialization: shortest-roundtrip
	// JSON floats must come back bit-identical or cached replays would
	// drift the artifact bytes.
	want := scenario.Indexes{
		MakespanS:       0.1 + 0.2,
		ThroughputPerH:  math.Pi * 1e-7,
		MeanCompletionS: math.MaxFloat64 / 3,
		UtilizationPct:  99.999999999999986,
		Migrations:      1<<62 + 7,
		Suspensions:     3,
		Failed:          0,
		Rejected:        12,
		Completed:       48,
	}
	key := keyFor("roundtrip")
	if err := s.Put(key, want); err != nil {
		t.Fatal(err)
	}
	got, ok, err := s.Get(key)
	if err != nil || !ok {
		t.Fatalf("Get after Put: ok=%v err=%v", ok, err)
	}
	if got != want {
		t.Fatalf("roundtrip drifted:\n got %+v\nwant %+v", got, want)
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 0 || st.Corrupt != 0 {
		t.Fatalf("stats = %+v, want exactly one hit", st)
	}
}

// TestEntryIsJSONMarshalBytes: an entry is exactly json.Marshal(idx) and a
// newline, so a cache written before the codec replays with zero misses;
// a hand-edited entry, even one that is still valid JSON of the same
// value, reads as corrupt and is evicted.
func TestEntryIsJSONMarshalBytes(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	want := scenario.Indexes{
		MakespanS: 1e21, ThroughputPerH: 9.99e-7, MeanCompletionS: math.Copysign(0, -1),
		UtilizationPct: 0.1 + 0.2, Migrations: math.MinInt64, Completed: 48, SlowdownP99: 5e-324,
		CriticalPathStretch: math.MaxFloat64,
	}
	data, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	data = append(data, '\n')

	key := keyFor("written")
	if err := s.Put(key, want); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(s.path(key)); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("Put wrote %q (err %v), want json.Marshal's %q", got, err, data)
	}

	old := keyFor("older")
	if err := os.MkdirAll(filepath.Dir(s.path(old)), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(s.path(old), data, 0o644); err != nil {
		t.Fatal(err)
	}
	got, ok, err := s.Get(old)
	if err != nil || !ok {
		t.Fatalf("json.Marshal entry: ok=%v err=%v, want a hit", ok, err)
	}
	if got != want || math.Signbit(got.MeanCompletionS) != math.Signbit(want.MeanCompletionS) {
		t.Fatalf("json.Marshal entry read back as %+v, want %+v", got, want)
	}

	edited, err := json.MarshalIndent(want, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(s.path(old), edited, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := s.Get(old); ok || err != nil {
		t.Fatalf("hand-edited entry: ok=%v err=%v, want a corrupt miss", ok, err)
	}
	if _, err := os.Stat(s.path(old)); !os.IsNotExist(err) {
		t.Fatalf("hand-edited entry not evicted: %v", err)
	}
	if st := s.Stats(); st.Hits != 1 || st.Misses != 1 || st.Corrupt != 1 {
		t.Fatalf("stats = %+v, want one hit and one corrupt miss", st)
	}
}

// TestGetOutcomes covers how Get reads the file at an entry's path: what is
// a clean miss, what is a miss with an error, that a file is read whole
// whatever its length, and what a hit costs in allocations.
func TestGetOutcomes(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(t *testing.T, s *FS)
	}{
		{"missing file is a clean miss", func(t *testing.T, s *FS) {
			_, ok, err := s.Get(keyFor("absent"))
			if err != nil || ok {
				t.Fatalf("Get = (ok %v, err %v), want a miss without error", ok, err)
			}
			if st := s.Stats(); st.Misses != 1 || st.Hits != 0 || st.Corrupt != 0 {
				t.Fatalf("stats = %+v, want one miss", st)
			}
		}},
		{"directory at the entry path is an error, not corrupt", func(t *testing.T, s *FS) {
			key := keyFor("dir")
			if err := os.MkdirAll(s.path(key), 0o755); err != nil {
				t.Fatal(err)
			}
			_, ok, err := s.Get(key)
			if err == nil || ok {
				t.Fatalf("Get = (ok %v, err %v), want a miss with an error", ok, err)
			}
			if st := s.Stats(); st.Misses != 1 || st.Corrupt != 0 {
				t.Fatalf("stats = %+v, want one miss and nothing corrupt", st)
			}
			if info, err := os.Stat(s.path(key)); err != nil || !info.IsDir() {
				t.Fatalf("directory at the entry path was touched: %v", err)
			}
		}},
		{"file longer than the first buffer comes back whole", func(t *testing.T, s *FS) {
			want := bytes.Repeat([]byte("0123456789abcdef"), 3*entryBuf/16+1)
			path := filepath.Join(t.TempDir(), "long")
			if err := os.WriteFile(path, want, 0o644); err != nil {
				t.Fatal(err)
			}
			got, err := readFile(path, make([]byte, 0, entryBuf))
			if err != nil || !bytes.Equal(got, want) {
				t.Fatalf("readFile = %d bytes, %v; want the %d bytes written", len(got), err, len(want))
			}
			// An entry read through a buffer shorter than itself still
			// decodes.
			key, idx := keyFor("grow"), scenario.Indexes{MakespanS: 1234.5678, Completed: 48}
			if err := s.Put(key, idx); err != nil {
				t.Fatal(err)
			}
			data, err := readFile(s.path(key), make([]byte, 0, 8))
			if err != nil {
				t.Fatal(err)
			}
			if back, err := scenario.ParseIndexes(data); err != nil || back != idx {
				t.Fatalf("entry read through a short buffer = %+v, %v", back, err)
			}
		}},
		{"hit allocation budget", func(t *testing.T, s *FS) {
			key := keyFor("alloc")
			if err := s.Put(key, scenario.Indexes{MakespanS: 1234.5678, UtilizationPct: 55.5555555, Completed: 48}); err != nil {
				t.Fatal(err)
			}
			// A hit allocates the entry's path and its NUL-terminated copy
			// for open (the race detector's instrumentation adds one);
			// os.ReadFile's file object and buffer made it 7.
			const budget = 3
			if n := testing.AllocsPerRun(100, func() {
				if _, ok, _ := s.Get(key); !ok {
					t.Fatal("Get missed a stored entry")
				}
			}); n > budget {
				t.Fatalf("a hit allocates %v times, budget %d", n, budget)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			tc.run(t, s)
		})
	}
}

func TestCorruptEntryEvictedAndReportedAsMiss(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := keyFor("corrupt")
	if err := s.Put(key, scenario.Indexes{Completed: 5}); err != nil {
		t.Fatal(err)
	}
	// Tear the entry the way a killed writer without atomic rename would.
	if err := os.WriteFile(s.path(key), []byte(`{"completed": 5, "makes`), 0o644); err != nil {
		t.Fatal(err)
	}
	_, ok, err := s.Get(key)
	if err != nil {
		t.Fatalf("corrupt entry returned error %v, want miss", err)
	}
	if ok {
		t.Fatal("corrupt entry decoded as a hit")
	}
	if _, err := os.Stat(s.path(key)); !os.IsNotExist(err) {
		t.Fatalf("corrupt entry not evicted: %v", err)
	}
	st := s.Stats()
	if st.Corrupt != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want one corrupt miss", st)
	}
	// Recovery path: a fresh Put over the evicted slot serves hits again.
	if err := s.Put(key, scenario.Indexes{Completed: 5}); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := s.Get(key); !ok {
		t.Fatal("re-put after eviction did not restore the entry")
	}
}

func TestInvalidKeysRejected(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"", "short", "../../../etc/passwd", keyFor("ok")[:8] + "/absolute", strings.ToUpper(keyFor("upper"))} {
		if err := s.Put(key, scenario.Indexes{}); err == nil {
			t.Errorf("Put accepted invalid key %q", key)
		}
		if _, _, err := s.Get(key); err == nil {
			t.Errorf("Get accepted invalid key %q", key)
		}
	}
}

func TestOpenCreatesNestedDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "a", "b", "cache")
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(keyFor("nested"), scenario.Indexes{Completed: 1}); err != nil {
		t.Fatal(err)
	}
	if n, err := s.Len(); err != nil || n != 1 {
		t.Fatalf("Len = %d, %v; want 1 entry", n, err)
	}
}

func TestConcurrentPutGetSameDir(t *testing.T) {
	// Two FS handles on one directory model two processes sharing a cache;
	// the race detector (CI runs -race) checks the counters, and the
	// content-addressing contract means every writer stores the same value.
	dir := t.TempDir()
	a, _ := Open(dir)
	b, _ := Open(dir)
	key := keyFor("shared")
	want := scenario.Indexes{Completed: 7, MakespanS: 123.456}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		st := a
		if i%2 == 1 {
			st = b
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				if err := st.Put(key, want); err != nil {
					t.Error(err)
					return
				}
				if got, ok, err := st.Get(key); err != nil || (ok && got != want) {
					t.Errorf("Get = %+v ok=%v err=%v", got, ok, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	// No torn reads: every Get either missed (lost a race with the very
	// first Put) or returned the exact value. Leftover temp files would
	// mean a rename failed somewhere.
	entries, err := filepath.Glob(filepath.Join(dir, "*", ".*tmp*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("leaked temp files: %v", entries)
	}
}

func TestPutErrorsCounted(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Sabotage one fan-out slot by occupying its directory name with a
	// regular file: MkdirAll fails with ENOTDIR for every uid (a chmod-based
	// read-only dir would be ignored when the tests run as root).
	key := keyFor("puterr")
	if err := os.WriteFile(filepath.Join(dir, key[:2]), []byte("in the way"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(key, scenario.Indexes{Completed: 1}); err == nil {
		t.Fatal("Put into a sabotaged fan-out slot succeeded")
	}
	if st := s.Stats(); st.PutErrors != 1 {
		t.Fatalf("stats = %+v, want PutErrors == 1", st)
	}
	// Invalid-key rejections are caller bugs, but they are still failed
	// writes: the counter must not miss them.
	if err := s.Put("not-a-key", scenario.Indexes{}); err == nil {
		t.Fatal("Put accepted an invalid key")
	}
	if st := s.Stats(); st.PutErrors != 2 {
		t.Fatalf("stats = %+v, want PutErrors == 2", st)
	}
	// Other slots are unaffected.
	if err := s.Put(keyFor("healthy"), scenario.Indexes{Completed: 2}); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.PutErrors != 2 {
		t.Fatalf("healthy Put bumped PutErrors: %+v", st)
	}
}

func TestLenCountsOnlyCacheEntries(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, tag := range []string{"one", "two"} {
		if err := s.Put(keyFor(tag), scenario.Indexes{Completed: 1}); err != nil {
			t.Fatal(err)
		}
	}
	// The sweep service persists its state under the same root; none of it
	// is a content-addressed entry and none of it may inflate Len.
	sweepDir := filepath.Join(dir, "sweeps", "abc123-0001")
	if err := os.MkdirAll(filepath.Join(sweepDir, "artifacts"), 0o755); err != nil {
		t.Fatal(err)
	}
	// The last one is a decoy: a hex-named .json that satisfies the key
	// grammar but sits outside the fan-out directories.
	for _, name := range []string{"spec.json", "state.json", filepath.Join("artifacts", "report.json"),
		filepath.Join("artifacts", "0123456789abcdef.json")} {
		if err := os.WriteFile(filepath.Join(sweepDir, name), []byte("{}"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if n, err := s.Len(); err != nil || n != 2 {
		t.Fatalf("Len = %d, %v; want exactly the 2 cache entries", n, err)
	}
}

func TestLenTolerantOfConcurrentEviction(t *testing.T) {
	// Len runs while another goroutine churns entries in and out of the
	// directory; a file or fan-out dir vanishing mid-walk must be skipped,
	// never surfaced as an error.
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			key := keyFor("churn" + string(rune('a'+i%16)))
			if err := s.Put(key, scenario.Indexes{Completed: 1}); err != nil {
				t.Error(err)
				return
			}
			os.Remove(s.path(key))
			os.Remove(filepath.Dir(s.path(key)))
		}
	}()
	for i := 0; i < 200; i++ {
		if _, err := s.Len(); err != nil {
			t.Errorf("Len under churn: %v", err)
			break
		}
	}
	close(stop)
	wg.Wait()
}
