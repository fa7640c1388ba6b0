package scenario

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
)

// EngineVersion stamps every cell key with the simulation semantics that
// produced the cached result. Identical (spec, instance, run) inputs only
// guarantee identical indexes for identical engine semantics, so any change
// that moves the golden artifacts — event ordering, index arithmetic, RNG
// derivation, world generation — must bump this string. Bumping it orphans
// every existing cache entry instead of silently replaying stale results.
const EngineVersion = "vce-scenario/4"

// Store is the pluggable result cache the executor consults per grid cell
// before simulating and writes through after. Keys are CellKey hashes;
// values are the cell's Indexes. Implementations must be safe for
// concurrent use — the worker pool calls Get and Put from many goroutines.
//
// The cache is strictly an optimization: a Get error or a corrupt entry is
// treated as a miss (the executor recomputes), and Put failures are best
// effort. internal/scenario/store provides the filesystem implementation.
type Store interface {
	// Get returns the cached indexes for key, with ok reporting whether the
	// entry exists and decoded cleanly.
	Get(key string) (idx Indexes, ok bool, err error)
	// Put records the indexes for key, overwriting any existing entry.
	Put(key string, idx Indexes) error
}

// canonicalWorldJSON is the normalized spec serialization that feeds the
// cell hash: the defaults-applied spec with every field that cannot affect
// a single cell's result cleared. Description is commentary; Runs is grid
// shape (the run index is hashed separately); the policy matrix only
// selects which cells exist — the cell's own coordinates are hashed
// separately, so adding a policy to the matrix must not invalidate the
// cells already computed. Everything else (name and seed feed the RNG
// derivation; machines, workload, owner, faults, horizon and checkpoint
// interval shape the world) stays in.
func (s *Spec) canonicalWorldJSON() ([]byte, error) {
	c := *s.withDefaults()
	c.Description = ""
	c.Policies = PolicyMatrix{}
	c.Runs = 0
	data, err := json.Marshal(&c)
	if err != nil {
		return nil, fmt.Errorf("scenario: canonicalize spec: %w", err)
	}
	return data, nil
}

// cellKey hashes one grid cell from a precomputed canonical world: the
// executor canonicalizes the spec once per sweep and calls this per job.
// NUL separators keep adjacent fields from aliasing.
func cellKey(world []byte, sched, migration string, run int) string {
	h := sha256.New()
	h.Write([]byte(EngineVersion))
	h.Write([]byte{0})
	h.Write(world)
	h.Write([]byte{0})
	h.Write([]byte(sched))
	h.Write([]byte{0})
	h.Write([]byte(migration))
	fmt.Fprintf(h, "\x00%d", run)
	return hex.EncodeToString(h.Sum(nil))
}

// CellKey is the canonical content hash of one (instance, run) grid cell:
// SHA-256 over the engine-version stamp, the normalized spec JSON (see
// canonicalWorldJSON), the instance's scheduling/migration coordinates and
// the run index. The determinism contract — equal (spec, instance, run)
// always produce equal Indexes — makes the key a sound address for the
// result across processes, machines and CI jobs.
func CellKey(inst Instance, run int) (string, error) {
	if inst.Spec == nil {
		return "", fmt.Errorf("scenario: CellKey: instance has no spec")
	}
	if run < 0 {
		return "", fmt.Errorf("scenario: CellKey: negative run %d", run)
	}
	world, err := inst.Spec.canonicalWorldJSON()
	if err != nil {
		return "", err
	}
	return cellKey(world, inst.Sched, inst.Migration, run), nil
}
