// Package store holds filesystem-backed implementations of the scenario
// result cache (scenario.Store): content-addressed per-cell result files
// that make repeat sweeps, interrupted sweeps and sharded CI jobs reuse
// each other's work instead of re-simulating.
package store

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"syscall"

	"vce/internal/obs"
	"vce/internal/scenario"
)

// Stats is a snapshot of a store's traffic counters, in the type telemetry
// and cache_stats.json carry. Misses counts every Get that did not return a
// usable entry (absent or corrupt); Corrupt counts the subset that found a
// file but could not decode it. PutErrors counts writes that failed to
// land: the executor treats Put as best effort, so a read-only or full
// cache directory is invisible in the hit/miss traffic — this counter is
// how a dying cache stays visible.
type Stats = obs.CacheStats

// FS is the filesystem scenario.Store: one JSON file per cell result,
// addressed as <dir>/<key[:2]>/<key>.json (the two-character fan-out keeps
// directories small at campus-sweep scale). An entry is exactly the bytes
// Put writes — scenario.AppendIndexes' compact form, which is
// json.Marshal's, and a newline — and Get reads it back bit-exactly with
// scenario.ParseIndexes, without reflection. Writes go through a temp file
// and an atomic rename, so a concurrent or killed writer can never leave a
// partially-written entry under the final name; an entry the parser
// refuses (torn by an unclean shutdown, or hand-edited in any way) is
// deleted on read and reported as a miss, so the executor falls back to
// recomputing it. All methods are safe for concurrent use.
type FS struct {
	dir                            string
	hits, misses, corrupt, putErrs atomic.Uint64
}

// Open returns an FS store rooted at dir, creating it if needed. The same
// directory can be shared by concurrent processes: entries are
// content-addressed and writes are atomic, so the worst interleaving is
// duplicated work, never a wrong or torn result.
func Open(dir string) (*FS, error) {
	if dir == "" {
		return nil, errors.New("store: empty cache directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return &FS{dir: dir}, nil
}

// Dir returns the store's root directory.
func (s *FS) Dir() string { return s.dir }

// checkKey rejects keys that could escape the store directory or collide
// with the fan-out scheme. CellKey always produces lowercase hex, so
// anything else is a caller bug, not a cache state.
func checkKey(key string) error {
	if len(key) < 8 {
		return fmt.Errorf("store: key %q too short", key)
	}
	for _, c := range key {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return fmt.Errorf("store: key %q is not lowercase hex", key)
		}
	}
	return nil
}

// path is <dir>/<key[:2]>/<key>.json, built in one allocation.
func (s *FS) path(key string) string {
	const sep = string(filepath.Separator)
	return s.dir + sep + key[:2] + sep + key + ".json"
}

// Get implements scenario.Store. A missing entry is (zero, false, nil); a
// present-but-undecodable entry is deleted, counted in Stats().Corrupt and
// reported the same way, so callers recompute instead of failing. Any other
// read error (a directory at the entry's path, a permission fault) is a
// miss that returns the error.
func (s *FS) Get(key string) (scenario.Indexes, bool, error) {
	if err := checkKey(key); err != nil {
		return scenario.Indexes{}, false, err
	}
	var buf [entryBuf]byte
	data, err := readFile(s.path(key), buf[:0])
	if err != nil {
		s.misses.Add(1)
		if errors.Is(err, fs.ErrNotExist) {
			return scenario.Indexes{}, false, nil
		}
		return scenario.Indexes{}, false, fmt.Errorf("store: %w", err)
	}
	idx, err := scenario.ParseIndexes(data)
	if err != nil {
		// Corrupt entry: evict it so the recomputed result can land
		// cleanly, and fall back to simulating this cell.
		_ = os.Remove(s.path(key))
		s.corrupt.Add(1)
		s.misses.Add(1)
		return scenario.Indexes{}, false, nil
	}
	s.hits.Add(1)
	return idx, true, nil
}

// entryBuf is the size of the buffer Get reads an entry into on its own
// stack. An entry is about 450 bytes; a longer file grows onto the heap.
const entryBuf = 1024

// readFile appends the contents of the file at path to buf with open, read
// until it returns 0, and close: four system calls for an entry. os.ReadFile
// adds an fstat, and os.Open fcntl calls and a poller registration, to each.
// Its errors are *fs.PathError, so errors.Is(err, fs.ErrNotExist) tells a
// missing file.
func readFile(path string, buf []byte) ([]byte, error) {
	fd, err := syscall.Open(path, syscall.O_RDONLY|syscall.O_CLOEXEC, 0)
	for err == syscall.EINTR {
		fd, err = syscall.Open(path, syscall.O_RDONLY|syscall.O_CLOEXEC, 0)
	}
	if err != nil {
		return nil, &fs.PathError{Op: "open", Path: path, Err: err}
	}
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := syscall.Read(fd, buf[len(buf):cap(buf)])
		if err == syscall.EINTR {
			continue
		}
		if err != nil {
			syscall.Close(fd)
			return nil, &fs.PathError{Op: "read", Path: path, Err: err}
		}
		if n == 0 {
			break
		}
		buf = buf[:len(buf)+n]
	}
	if err := syscall.Close(fd); err != nil {
		return nil, &fs.PathError{Op: "close", Path: path, Err: err}
	}
	return buf, nil
}

// Put implements scenario.Store: write-to-temp plus rename, so readers and
// concurrent writers only ever observe complete entries. Last writer wins,
// which is harmless — content addressing means every writer holds the same
// value. Failed writes are counted in Stats().PutErrors: callers treat Put
// as best effort, so the counter is the only place a dying cache shows up.
func (s *FS) Put(key string, idx scenario.Indexes) error {
	if err := s.put(key, idx); err != nil {
		s.putErrs.Add(1)
		return err
	}
	return nil
}

// tmpSeq makes temp-file names unique within a process; the pid in the
// name separates processes sharing a cache directory.
var tmpSeq atomic.Uint64

// createTemp is os.CreateTemp with an explicit creation mode. Entries in a
// shared cache must be readable by every process sharing the directory, so
// the temp file that becomes the entry is created 0644 (filtered through
// the process umask by the kernel, like any create) rather than
// os.CreateTemp's hardcoded owner-only 0600 — a rename preserves the temp
// file's mode, so 0600 here made one user's entries unreadable to every
// other cache tenant.
func createTemp(dir, prefix string) (*os.File, error) {
	for {
		name := filepath.Join(dir, fmt.Sprintf("%s%d-%d", prefix, os.Getpid(), tmpSeq.Add(1)))
		f, err := os.OpenFile(name, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
		if errors.Is(err, fs.ErrExist) {
			continue
		}
		return f, err
	}
}

func (s *FS) put(key string, idx scenario.Indexes) error {
	if err := checkKey(key); err != nil {
		return err
	}
	data, err := scenario.AppendIndexes(make([]byte, 0, 512), idx)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	final := s.path(key)
	if err := os.MkdirAll(filepath.Dir(final), 0o755); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	tmp, err := createTemp(filepath.Dir(final), "."+key+".tmp-")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	_, werr := tmp.Write(append(data, '\n'))
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: writing %s: %w", key, errors.Join(werr, cerr))
	}
	if err := os.Rename(tmp.Name(), final); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// Stats snapshots the hit/miss/corrupt counters. A warm repeat of an
// identical sweep shows Misses == 0: the executor performed zero
// simulations.
func (s *FS) Stats() Stats {
	return Stats{
		Hits:      s.hits.Load(),
		Misses:    s.misses.Load(),
		Corrupt:   s.corrupt.Load(),
		PutErrors: s.putErrs.Load(),
	}
}

// Len counts the store's content-addressed entries: it reads the root once
// and descends only into two-character directories, counting the valid keys
// that begin with their directory's name (the fan-out scheme), so its cost
// follows the entries and not whatever else shares the root (the sweep
// service persists every sweep's state and artifacts under sweeps/, which
// is neither read nor counted). It is safe to call under live traffic: a
// fan-out directory that vanishes mid-scan (a concurrent cleaner) is simply
// not counted rather than failing the call.
func (s *FS) Len() (int, error) {
	fanout, err := os.ReadDir(s.dir)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return 0, err
	}
	n := 0
	for _, d := range fanout {
		if !d.IsDir() || len(d.Name()) != 2 {
			continue
		}
		entries, err := os.ReadDir(filepath.Join(s.dir, d.Name()))
		if err != nil && !errors.Is(err, fs.ErrNotExist) {
			return n, err
		}
		for _, e := range entries {
			key, isJSON := strings.CutSuffix(e.Name(), ".json")
			if isJSON && !e.IsDir() && strings.HasPrefix(key, d.Name()) && checkKey(key) == nil {
				n++
			}
		}
	}
	return n, nil
}

var _ scenario.Store = (*FS)(nil)
