//go:build amd64

package circuit

// laneAVX reports whether the hand-written AVX2 lane kernels are usable
// on this CPU. The kernels cover the fused lane segment walks at the
// full wave width (16 lanes = four 4-wide vectors). Bit-identity with
// the pure-Go loops holds by construction: every arithmetic instruction
// is a plain IEEE vmulpd/vaddpd/vmaxpd on the same values (gc never
// contracts mul+add into FMA on amd64), and an op whose raw value would
// saturate on any lane is handed back to the Go loop before anything is
// stored, so the tanh soft-saturation branches live in exactly one
// place.
var laneAVX = cpuHasAVX2()

// cpuHasAVX2 reports AVX2 support plus OS-enabled ymm state.
func cpuHasAVX2() bool

// Each kernel walks ops[0:n] and returns the count of ops fully
// committed: n on a clean run, or the index of the first op with a lane
// beyond full scale. The caller's Go loop runs that one op and calls the
// kernel again on the rest of the segment, so a saturated lane costs one
// Go op per saturating op, not the rest of the walk. ops, ids, lg and un
// are per-op arrays and may start mid-segment; nv, state and pk are
// indexed by net, integrator or block and always point at element 0.
// The record variants additionally max-fold each op's per-lane |raw|
// into the owning block's peak slots (idempotent, so a bailed op folding
// again in Go is harmless). That is all a record pass latches: an op's
// overflow bit is read from its peak (Simulator.overflowed).

//go:noescape
func laneSegLin16(ops *fusedOp, n int, nv, lg *float64, un *bool, fs float64, store bool) int

//go:noescape
func laneSegState16(ops *fusedOp, n int, nv, state *float64, fs float64, store bool) int

//go:noescape
func laneSegLin16Rec(ops *fusedOp, ids *int32, n int, nv, lg *float64, un *bool, pk *float64, fs float64, store bool) int

//go:noescape
func laneSegState16Rec(ops *fusedOp, ids *int32, n int, nv, state, pk *float64, fs float64, store bool) int

// laneStage16 is the integrator-derivative stage: dst = k·(g·nv[n] + off)
// per integrator and, when tmp is non-nil, the fused trial-state update
// tmp = state + cs·dst. No saturation exists on this path, so it always
// commits all n integrators.
//
//go:noescape
func laneStage16(n int, intNet *int32, intGain, intOff, nv, dst, tmp, state, cs *float64, k float64)

// laneCombine16 is the RK4 combine for a tick with every lane active:
// state += hs/6·(k1+2k2+2k3+k4) with the post-saturation peak latch.
// Returns the count of integrators committed; an integrator with a lane
// beyond the overflow threshold is left to the Go loop (overflow latch +
// soft saturation), which resumes the kernel after it, like the segment
// kernels' bail. ids, state and k1–k4 may start at any integrator; hs
// and pk always point at element 0.
//
//go:noescape
func laneCombine16(n int, ids *int32, state, k1, k2, k3, k4, hs, pk *float64, ovThresh float64) int
