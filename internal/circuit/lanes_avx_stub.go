//go:build !amd64

package circuit

// Non-amd64 builds have no lane kernels: the pure-Go lane loops are the
// test reference, and the chip refuses lane mode (LaneKernels). A
// variable, like amd64's, so tests that switch the kernels compile here.
var laneAVX = false

func laneSegLin16(ops *fusedOp, n int, nv, lg *float64, un *bool, fs float64, store bool) int {
	return 0
}

func laneSegState16(ops *fusedOp, n int, nv, state *float64, fs float64, store bool) int {
	return 0
}

func laneSegLin16Rec(ops *fusedOp, ids *int32, n int, nv, lg *float64, un *bool, pk *float64, fs float64, store bool) int {
	return 0
}

func laneSegState16Rec(ops *fusedOp, ids *int32, n int, nv, state, pk *float64, fs float64, store bool) int {
	return 0
}

func laneStage16(n int, intNet *int32, intGain, intOff, nv, dst, tmp, state, cs *float64, k float64) {
}

func laneCombine16(n int, ids *int32, state, k1, k2, k3, k4, hs, pk *float64, ovThresh float64) int {
	return 0
}
