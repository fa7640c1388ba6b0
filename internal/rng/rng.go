// Package rng provides deterministic pseudo-random streams for the VCE
// simulator and workload generators. Every experiment derives named
// sub-streams from a single root seed, so runs are exactly reproducible and
// perturbing one component's draws does not shift another's.
//
// The generator is splitmix64: tiny, fast, passes BigCrush on its intended
// use, and trivially seedable — the right tool for simulation determinism
// (crypto-quality randomness is not a requirement here).
package rng

import "math"

// Source is a deterministic pseudo-random stream.
type Source struct {
	state uint64
	// cached spare normal variate for NormFloat64 (Box-Muller pairs).
	haveSpare bool
	spare     float64
}

// New returns a stream seeded with seed.
func New(seed uint64) *Source {
	return &Source{state: seed}
}

// Derive returns an independent child stream identified by name. Children
// with distinct names (or distinct parents) produce unrelated sequences.
func (s *Source) Derive(name string) *Source {
	h := s.state
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 0x100000001b3 // FNV-1a prime over splitmix state
	}
	child := New(h)
	child.Uint64() // decouple from raw hash
	return child
}

// Uint64 returns the next 64 pseudo-random bits.
func (s *Source) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform variate in [0, 1).
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(s.Uint64() % uint64(n))
}

// Range returns a uniform variate in [lo, hi).
func (s *Source) Range(lo, hi float64) float64 {
	return lo + (hi-lo)*s.Float64()
}

// ExpFloat64 returns an exponential variate with rate 1 (mean 1).
func (s *Source) ExpFloat64() float64 {
	for {
		u := s.Float64()
		if u > 0 {
			return -math.Log(u)
		}
	}
}

// NormFloat64 returns a standard normal variate (Box-Muller).
func (s *Source) NormFloat64() float64 {
	if s.haveSpare {
		s.haveSpare = false
		return s.spare
	}
	for {
		u := s.Float64()
		v := s.Float64()
		if u <= 0 {
			continue
		}
		r := math.Sqrt(-2 * math.Log(u))
		s.spare = r * math.Sin(2*math.Pi*v)
		s.haveSpare = true
		return r * math.Cos(2*math.Pi*v)
	}
}

// Perm returns a pseudo-random permutation of [0, n).
func (s *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := s.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// Bool returns true with probability p.
func (s *Source) Bool(p float64) bool {
	return s.Float64() < p
}

// Pareto returns a bounded Pareto variate with shape alpha and minimum xmin.
// Heavy-tailed service demands are the standard model for batch-job sizes in
// the load-balancing literature the paper cites.
func (s *Source) Pareto(alpha, xmin float64) float64 {
	for {
		u := s.Float64()
		if u > 0 {
			return xmin / math.Pow(u, 1/alpha)
		}
	}
}
