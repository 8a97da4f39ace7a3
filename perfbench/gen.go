package main

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"math/rand/v2"

	"analogacc/internal/la"
)

// The input generator. Every right-hand side and every operator's scale a
// run sends is drawn from PCG streams keyed by the run's --seed, so one
// seed always gives one request sequence; the server only ever sees the
// generated systems. Stream numbers separate the independent draws (the
// operator scales, each closed-loop client, the untimed pre-phase, the
// probes) so that changing how many requests one stream serves never
// shifts another.

const (
	streamShapes    = 1
	streamOperators = 2
	streamPrephase  = 3
	streamProbe     = 4
	// streamClient0 + k is client k's request stream.
	streamClient0 = 16
)

func newRand(seed uint64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

// shapeRand draws operator shapes. It does not depend on --seed: a
// workload's operators share fixed shapes, and the run's seed picks each
// operator's overall scale (so its values and fingerprint) and every
// right-hand side. The host's value scaling makes an operator's analog
// cost independent of its overall scale, so runs on different seeds
// solve equally hard systems and their figures compare.
func shapeRand() *rand.Rand { return newRand(0, streamShapes) }

// drawScale draws an operator's overall scale from [0.5, 2).
func drawScale(r *rand.Rand) float64 { return 0.5 + 1.5*r.Float64() }

// scaled returns s·a.
func scaled(a *la.CSR, s float64) *la.CSR {
	entries := make([]la.COOEntry, 0, a.NNZ())
	for i := 0; i < a.Dim(); i++ {
		a.VisitRow(i, func(j int, v float64) {
			entries = append(entries, la.COOEntry{Row: i, Col: j, Val: s * v})
		})
	}
	out, err := la.NewCSR(a.Dim(), entries)
	if err != nil {
		panic(err) // the entries of a valid CSR, rescaled
	}
	return out
}

// bandedOperator draws a symmetric, strictly diagonally dominant banded
// matrix of order n (half-bandwidth 2, so at most 5 coefficients a row):
// SPD, so CG converges on it, and well inside the analog pool's per-row
// multiplier budget. Each diagonal is twice its row's off-diagonal mass
// plus 0.5.
func bandedOperator(r *rand.Rand, n int) *la.CSR {
	off := make([][2]float64, n) // off[i][d-1] = a(i, i+d)
	for i := range off {
		for d := 1; d <= 2; d++ {
			if i+d < n {
				off[i][d-1] = -(0.25 + 0.75*r.Float64())
			}
		}
	}
	var entries []la.COOEntry
	for i := 0; i < n; i++ {
		mass := 0.0
		for d := 1; d <= 2; d++ {
			if i+d < n {
				v := off[i][d-1]
				entries = append(entries, la.COOEntry{Row: i, Col: i + d, Val: v}, la.COOEntry{Row: i + d, Col: i, Val: v})
				mass += math.Abs(v)
			}
			if i-d >= 0 {
				mass += math.Abs(off[i-d][d-1])
			}
		}
		entries = append(entries, la.COOEntry{Row: i, Col: i, Val: 2*mass + 0.5})
	}
	a, err := la.NewCSR(n, entries)
	if err != nil {
		panic(err) // the entries above are in range by construction
	}
	return a
}

// rhsVector draws a right-hand side with entries in ±[0.2, 1].
func rhsVector(r *rand.Rand, n int) la.Vector {
	b := la.NewVector(n)
	for i := range b {
		v := 0.2 + 0.8*r.Float64()
		if r.IntN(2) == 0 {
			v = -v
		}
		b[i] = v
	}
	return b
}

// zipf samples indices 0..k-1 with P(i) ∝ (i+1)^-s.
type zipf struct{ cdf []float64 }

func newZipf(k int, s float64) zipf {
	cdf := make([]float64, k)
	total := 0.0
	for i := range cdf {
		total += math.Pow(float64(i+1), -s)
		cdf[i] = total
	}
	for i := range cdf {
		cdf[i] /= total
	}
	return zipf{cdf: cdf}
}

func (z zipf) draw(r *rand.Rand) int {
	u := r.Float64()
	for i, c := range z.cdf {
		if u < c {
			return i
		}
	}
	return len(z.cdf) - 1
}

// seqHash fingerprints a request sequence: callers feed each request's
// operator fingerprint and right-hand-side bits in order.
type seqHash struct{ h hash.Hash64 }

func newSeqHash() *seqHash { return &seqHash{h: fnv.New64a()} }

func (s *seqHash) add(op *la.CSR, rhs ...la.Vector) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], la.Fingerprint(op))
	s.h.Write(buf[:])
	for _, b := range rhs {
		for _, v := range b {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			s.h.Write(buf[:])
		}
	}
}

func (s *seqHash) sum() uint64 { return s.h.Sum64() }
