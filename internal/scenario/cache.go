package scenario

import (
	"crypto/sha256"
	"encoding"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strconv"
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

// keyPrefix is the SHA-256 state after hashing "EngineVersion\0world\0",
// in crypto/sha256's MarshalBinary form. Every cell key of a sweep starts
// from the same canonical world, so the executor hashes it once per sweep
// and each cell key resumes a copy of the state.
type keyPrefix []byte

func newKeyPrefix(world []byte) keyPrefix {
	h := sha256.New()
	h.Write([]byte(EngineVersion))
	h.Write([]byte{0})
	h.Write(world)
	h.Write([]byte{0})
	state, err := h.(encoding.BinaryMarshaler).MarshalBinary()
	if err != nil {
		panic("scenario: sha256 state does not marshal: " + err.Error())
	}
	return state
}

// cellKey hashes one grid cell: the prefix, then the cell's coordinates and
// run index. NUL separators keep adjacent fields from aliasing.
func (p keyPrefix) cellKey(sched, migration string, run int) string {
	h := sha256.New()
	if err := h.(encoding.BinaryUnmarshaler).UnmarshalBinary(p); err != nil {
		panic("scenario: sha256 state does not unmarshal: " + err.Error())
	}
	var buf [96]byte
	b := append(append(buf[:0], sched...), 0)
	b = append(append(b, migration...), 0)
	h.Write(strconv.AppendInt(b, int64(run), 10))
	return hex.EncodeToString(h.Sum(buf[:0]))
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
	return newKeyPrefix(world).cellKey(inst.Sched, inst.Migration, run), nil
}
