package circuit

import "math"

// Fused step kernel: the simulator's fast engine. Walking the op stream
// (program.go) one op at a time costs an opcode dispatch on every op, a
// full netVals clear before every evaluation, and five bounds-checked
// parallel-array loads per op. The fused kernel removes all three:
//
//   - At lower time the ops are re-materialised into compact 24-byte
//     struct-of-ops streams in execution order, segmented into
//     homogeneous runs. Each run executes as a tight loop specialised for
//     its opcode: no switch, no blk pointer loads (except opInput, which
//     must read Stimulus live), and no per-op bounds checks on op data —
//     the loops range over exact subslices. Cold fields (the op's stream
//     index for fold re-sync, the second input net of a varmul, the
//     owning block's latch slot) live in side arrays so the hot loops
//     never pull them through the cache.
//   - Execution order is phase-major: nets are assigned topological
//     levels (a net's level is the max level of its driver ops; a
//     combinational op sits one past its deepest input net) and every
//     driver of a net executes in its net's phase. Each phase runs a
//     store pass (the stream-first driver of each net, emitted as
//     0 + v — exactly the reference's cleared-slot-plus-first-addend sum,
//     so even signed zeros match bit-for-bit) followed by an add pass
//     (the remaining drivers, in stream order). First-driver stores
//     replace the netVals clear; the store/add split replaces the per-op
//     first-flag branch. Per-net accumulation order is still exactly
//     stream order, so results are bit-identical to the reference
//     interpreter. Undriven nets are never written by any engine after
//     Reset, so skipping them is safe.
//
// The op tape is materialised as two disjoint streams along the
// program's cone classification. The cone stream holds the ops the
// integrator inputs depend on; the three RK4 trial stages (and the
// valsDirty k1 refresh) walk only it. The record stream holds every
// other op. The record pass — one per step, plus Reset — walks the cone
// stream and then the record stream with the peak tracking folded into
// each opcode loop, writing the simulator's dense latch store through
// the streams' ids arrays (an op's overflow latch is read from its peak).
// Record-only ops may read cone nets and each other's nets, but no cone
// op reads a record-only net, so every input is final when the record
// stream runs.

// fusedOp is one materialised op: 24 bytes, only the fields the hot loops
// touch. Meaning varies by segment opcode: for opConst, gain holds the
// pre-saturated constant, off its raw value (the record pass tracks its
// peak), and in0 is unused; opState/opInput need no folded constants.
// The op's index in the program's stream arrays and a varmul's second
// input net live in the stream's side arrays.
type fusedOp struct {
	in0, out  int32
	gain, off float64
}

// fusedSeg is one homogeneous run [start,end) of a materialised stream:
// every op in it has the same opcode and the same store/add role.
type fusedSeg struct {
	op         opcode
	store      bool
	start, end int32
}

// fusedStream is one materialised execution stream (the cone or the
// record-only ops). aux[i] is op i's index in the program's stream arrays
// (read during fold re-sync, and by LUT/input loops to reach tables and
// stimulus blocks); in1[i] is the second input net (read by varmul loops
// only); ids[i] is the owning block's ID (read by the record passes to
// address the block's latch slots).
type fusedStream struct {
	ops      []fusedOp
	aux, in1 []int32
	ids      []int32
	segs     []fusedSeg

	// Lane kernel: per-lane folded constants aligned with the op
	// positions ([pos*B+lane]), re-synced when the simulator's laneProg
	// bumps its fold generation or changes width. laneUni marks ops whose
	// folded constants are equal across every lane (all of them, in a
	// batch that diverges only the right-hand sides), so the hot loops
	// read one gain instead of streaming B copies. laneCraw carries the
	// per-lane opConst raw values, which only the record pass reads.
	laneG    []float64
	laneUni  []bool
	laneCraw []float64
}

// emit appends op i, merging it into the last segment when that segment
// has the same opcode and store/add role.
func (st *fusedStream) emit(p *program, i int32, store bool) {
	kind := p.kind[i]
	if n := len(st.segs); n > 0 && st.segs[n-1].op == kind && st.segs[n-1].store == store {
		st.segs[n-1].end++
	} else {
		st.segs = append(st.segs, fusedSeg{
			op: kind, store: store,
			start: int32(len(st.ops)), end: int32(len(st.ops)) + 1,
		})
	}
	st.ops = append(st.ops, fusedOp{in0: p.in0[i], out: p.out[i]})
	st.aux = append(st.aux, i)
	st.in1 = append(st.in1, p.in1[i])
	st.ids = append(st.ids, int32(p.blk[i].ID))
}

// emitPhases appends the ops of one class (cone or record-only) in
// phase-major order: a driver executes in its net's phase, so the
// stream-first driver of every net runs before the rest even when their
// op levels differ; each phase is a store pass then an add pass, stream
// order within each pass. Every input a phase-L op reads completed in a
// phase < L, so the reordering only ever commutes writes to different
// nets; per-net sums still accumulate in exactly the reference's order.
func (st *fusedStream) emitPhases(p *program, byPhase [][]int32, cone bool) {
	n := 0
	for _, c := range p.cone {
		if c == cone {
			n++
		}
	}
	st.ops = make([]fusedOp, 0, n)
	st.aux = make([]int32, 0, n)
	st.in1 = make([]int32, 0, n)
	st.ids = make([]int32, 0, n)
	for _, phase := range byPhase {
		for _, i := range phase {
			if p.cone[i] == cone && p.first[i] {
				st.emit(p, i, true)
			}
		}
		for _, i := range phase {
			if p.cone[i] == cone && !p.first[i] {
				st.emit(p, i, false)
			}
		}
	}
}

// syncFold copies the program's folded constants (refreshed by refold on
// trim/mismatch changes) into the stream.
func (st *fusedStream) syncFold(p *program) {
	for si := range st.segs {
		sg := &st.segs[si]
		ops := st.ops[sg.start:sg.end]
		auxs := st.aux[sg.start:sg.end]
		if sg.op == opConst {
			for i := range ops {
				ops[i].gain = p.cval[auxs[i]]
				ops[i].off = p.craw[auxs[i]]
			}
		} else {
			for i := range ops {
				ops[i].gain = p.gain[auxs[i]]
				ops[i].off = p.off[auxs[i]]
			}
		}
	}
}

// fusedProg is the segmented view of a program. Topology is fixed for
// the life of a Simulator; the folded constants copied into the streams
// are refreshed lazily whenever refold bumps the program's generation
// (trim changes), so ReloadBlockParams keeps working unchanged.
type fusedProg struct {
	p *program

	// The cone and the record-only ops, each in phase-major store/add
	// order.
	cone, rec fusedStream
	syncedGen uint64

	// Lane fold generation the streams' lane constants were last synced
	// to. The width never changes, and every entry into lane mode refolds.
	syncedLaneGen uint64
}

// buildFused computes the topological levels and the materialised
// streams for p. nNets is the simulator's net count, sink net included.
func (p *program) buildFused(nNets int) *fusedProg {
	f := &fusedProg{p: p}

	// Topological levels. The stream is ordered sources-first then
	// topologically, so a single pass sees every driver of a net before
	// any reader of it: netLevel is final by the time it is consumed.
	netLevel := make([]int32, nNets)
	maxLevel := int32(0)
	for i := range p.kind {
		var lv int32
		switch p.kind[i] {
		case opLinear, opLUT:
			lv = netLevel[p.in0[i]] + 1
		case opVarMul:
			lv = max(netLevel[p.in0[i]], netLevel[p.in1[i]]) + 1
		}
		out := p.out[i]
		netLevel[out] = max(netLevel[out], lv)
		maxLevel = max(maxLevel, lv)
	}

	byPhase := make([][]int32, maxLevel+1)
	for i := range p.kind {
		lv := netLevel[p.out[i]]
		byPhase[lv] = append(byPhase[lv], int32(i)) // ascending i: stream order
	}
	f.cone.emitPhases(p, byPhase, true)
	f.rec.emitPhases(p, byPhase, false)
	f.syncFold()
	return f
}

// syncFold refreshes every stream's folded constants from the program.
func (f *fusedProg) syncFold() {
	f.cone.syncFold(f.p)
	f.rec.syncFold(f.p)
	f.syncedGen = f.p.foldGen
}

// eval is a trial evaluation: it computes the cone's nets.
func (f *fusedProg) eval(s *Simulator, t float64, state []float64) {
	if f.syncedGen != f.p.foldGen {
		f.syncFold()
	}
	f.runSegs(s, t, state, &f.cone)
}

// runSegs executes a materialised stream: one branch-free tight loop per
// homogeneous run, first-driver stores in place of a netVals clear.
func (f *fusedProg) runSegs(s *Simulator, t float64, state []float64, st *fusedStream) {
	p := f.p
	fs := s.nl.cfg.FullScale
	sat := s.nl.cfg.SatLevel
	nv := s.netVals
	for _, sg := range st.segs {
		ops := st.ops[sg.start:sg.end]
		switch {
		case sg.op == opConst && sg.store:
			for i := range ops {
				o := &ops[i]
				// gain holds cval, pre-saturated by refold.
				nv[o.out] = 0 + o.gain
			}
		case sg.op == opConst:
			for i := range ops {
				o := &ops[i]
				nv[o.out] += o.gain
			}
		case sg.op == opState && sg.store:
			for i := range ops {
				o := &ops[i]
				v := state[o.in0]
				if math.Abs(v) > fs { // one predictable branch; NaN passes through
					if v > fs {
						v = fs + (sat-fs)*math.Tanh((v-fs)/(sat-fs))
					} else {
						v = -fs - (sat-fs)*math.Tanh((-v-fs)/(sat-fs))
					}
				}
				nv[o.out] = 0 + v
			}
		case sg.op == opState:
			for i := range ops {
				o := &ops[i]
				v := state[o.in0]
				if math.Abs(v) > fs { // one predictable branch; NaN passes through
					if v > fs {
						v = fs + (sat-fs)*math.Tanh((v-fs)/(sat-fs))
					} else {
						v = -fs - (sat-fs)*math.Tanh((-v-fs)/(sat-fs))
					}
				}
				nv[o.out] += v
			}
		case sg.op == opInput:
			auxs := st.aux[sg.start:sg.end]
			for i := range ops {
				o := &ops[i]
				var v float64
				if fn := p.blk[auxs[i]].Stimulus; fn != nil {
					v = fn(t)
				}
				if math.Abs(v) > fs { // one predictable branch; NaN passes through
					if v > fs {
						v = fs + (sat-fs)*math.Tanh((v-fs)/(sat-fs))
					} else {
						v = -fs - (sat-fs)*math.Tanh((-v-fs)/(sat-fs))
					}
				}
				if sg.store {
					nv[o.out] = 0 + v
				} else {
					nv[o.out] += v
				}
			}
		case sg.op == opLinear && sg.store:
			for i := range ops {
				o := &ops[i]
				v := o.gain*nv[o.in0] + o.off
				if math.Abs(v) > fs { // one predictable branch; NaN passes through
					if v > fs {
						v = fs + (sat-fs)*math.Tanh((v-fs)/(sat-fs))
					} else {
						v = -fs - (sat-fs)*math.Tanh((-v-fs)/(sat-fs))
					}
				}
				nv[o.out] = 0 + v
			}
		case sg.op == opLinear:
			for i := range ops {
				o := &ops[i]
				v := o.gain*nv[o.in0] + o.off
				if math.Abs(v) > fs { // one predictable branch; NaN passes through
					if v > fs {
						v = fs + (sat-fs)*math.Tanh((v-fs)/(sat-fs))
					} else {
						v = -fs - (sat-fs)*math.Tanh((-v-fs)/(sat-fs))
					}
				}
				nv[o.out] += v
			}
		case sg.op == opVarMul:
			in1s := st.in1[sg.start:sg.end]
			for i := range ops {
				o := &ops[i]
				v := o.gain*(nv[o.in0]*nv[in1s[i]]/fs) + o.off
				if math.Abs(v) > fs { // one predictable branch; NaN passes through
					if v > fs {
						v = fs + (sat-fs)*math.Tanh((v-fs)/(sat-fs))
					} else {
						v = -fs - (sat-fs)*math.Tanh((-v-fs)/(sat-fs))
					}
				}
				if sg.store {
					nv[o.out] = 0 + v
				} else {
					nv[o.out] += v
				}
			}
		case sg.op == opLUT:
			auxs := st.aux[sg.start:sg.end]
			for i := range ops {
				o := &ops[i]
				tab := p.tab[auxs[i]]
				idx := lutIndex(nv[o.in0], fs, len(tab))
				v := o.gain*tab[idx] + o.off
				if math.Abs(v) > fs { // one predictable branch; NaN passes through
					if v > fs {
						v = fs + (sat-fs)*math.Tanh((v-fs)/(sat-fs))
					} else {
						v = -fs - (sat-fs)*math.Tanh((-v-fs)/(sat-fs))
					}
				}
				if sg.store {
					nv[o.out] = 0 + v
				} else {
					nv[o.out] += v
				}
			}
		}
	}
}

// evalRecord is the record-mode evaluation: every net, the cone stream
// then the record stream, with each op's |raw| (pre-saturation) value
// folded into its block's peak tracker, from which the block's overflow
// latch is read (Simulator.overflowed). Raw values depend only on
// completed input nets and a max is order-independent, so the phase-major
// walk is latch-identical to the reference's stream-order walk.
func (f *fusedProg) evalRecord(s *Simulator, t float64, state []float64) {
	if f.syncedGen != f.p.foldGen {
		f.syncFold()
	}
	f.runSegsRecord(s, t, state, &f.cone)
	f.runSegsRecord(s, t, state, &f.rec)
}

// runSegsRecord is runSegs with the record-mode bookkeeping in every
// loop, over a whole serial stream.
func (f *fusedProg) runSegsRecord(s *Simulator, t float64, state []float64, st *fusedStream) {
	p := f.p
	fs := s.nl.cfg.FullScale
	sat := s.nl.cfg.SatLevel
	nv := s.netVals
	peak := s.peak
	for _, sg := range st.segs {
		ops := st.ops[sg.start:sg.end]
		ids := st.ids[sg.start:sg.end]
		switch sg.op {
		case opConst:
			for i := range ops {
				o := &ops[i]
				// gain holds the saturated constant, off its raw value.
				if a, id := math.Abs(o.off), ids[i]; a > peak[id] {
					peak[id] = a
				}
				if sg.store {
					nv[o.out] = 0 + o.gain
				} else {
					nv[o.out] += o.gain
				}
			}
		case opState:
			for i := range ops {
				o := &ops[i]
				v := state[o.in0]
				a := math.Abs(v)
				if id := ids[i]; a > peak[id] { // NaN updates nothing
					peak[id] = a
				}
				if a > fs {
					if v > fs {
						v = fs + (sat-fs)*math.Tanh((v-fs)/(sat-fs))
					} else {
						v = -fs - (sat-fs)*math.Tanh((-v-fs)/(sat-fs))
					}
				}
				if sg.store {
					nv[o.out] = 0 + v
				} else {
					nv[o.out] += v
				}
			}
		case opInput:
			auxs := st.aux[sg.start:sg.end]
			for i := range ops {
				o := &ops[i]
				var v float64
				if fn := p.blk[auxs[i]].Stimulus; fn != nil {
					v = fn(t)
				}
				a := math.Abs(v)
				if id := ids[i]; a > peak[id] {
					peak[id] = a
				}
				if a > fs {
					if v > fs {
						v = fs + (sat-fs)*math.Tanh((v-fs)/(sat-fs))
					} else {
						v = -fs - (sat-fs)*math.Tanh((-v-fs)/(sat-fs))
					}
				}
				if sg.store {
					nv[o.out] = 0 + v
				} else {
					nv[o.out] += v
				}
			}
		case opLinear:
			for i := range ops {
				o := &ops[i]
				v := o.gain*nv[o.in0] + o.off
				a := math.Abs(v)
				if id := ids[i]; a > peak[id] {
					peak[id] = a
				}
				if a > fs {
					if v > fs {
						v = fs + (sat-fs)*math.Tanh((v-fs)/(sat-fs))
					} else {
						v = -fs - (sat-fs)*math.Tanh((-v-fs)/(sat-fs))
					}
				}
				if sg.store {
					nv[o.out] = 0 + v
				} else {
					nv[o.out] += v
				}
			}
		case opVarMul:
			in1s := st.in1[sg.start:sg.end]
			for i := range ops {
				o := &ops[i]
				v := o.gain*(nv[o.in0]*nv[in1s[i]]/fs) + o.off
				a := math.Abs(v)
				if id := ids[i]; a > peak[id] {
					peak[id] = a
				}
				if a > fs {
					if v > fs {
						v = fs + (sat-fs)*math.Tanh((v-fs)/(sat-fs))
					} else {
						v = -fs - (sat-fs)*math.Tanh((-v-fs)/(sat-fs))
					}
				}
				if sg.store {
					nv[o.out] = 0 + v
				} else {
					nv[o.out] += v
				}
			}
		case opLUT:
			auxs := st.aux[sg.start:sg.end]
			for i := range ops {
				o := &ops[i]
				tab := p.tab[auxs[i]]
				idx := lutIndex(nv[o.in0], fs, len(tab))
				v := o.gain*tab[idx] + o.off
				a := math.Abs(v)
				if id := ids[i]; a > peak[id] {
					peak[id] = a
				}
				if a > fs {
					if v > fs {
						v = fs + (sat-fs)*math.Tanh((v-fs)/(sat-fs))
					} else {
						v = -fs - (sat-fs)*math.Tanh((-v-fs)/(sat-fs))
					}
				}
				if sg.store {
					nv[o.out] = 0 + v
				} else {
					nv[o.out] += v
				}
			}
		}
	}
}

// syncFoldLanes materialises the stream's per-lane folded constants from
// the simulator's laneProg: laneG[pos*B+lane] is op pos's lane-l folded
// gain (the saturated constant for opConst), exactly mirroring how
// syncFold fills ops[pos].gain from the scalar fold. laneUni[pos] marks
// ops whose B folded gains are identical — the common case for
// everything but DACs when a batch diverges only its right-hand sides —
// letting the hot loops broadcast one load instead of streaming B.
// laneCraw[pos*B+lane] gets the opConst raw values whose peaks the record
// pass tracks.
func (st *fusedStream) syncFoldLanes(lp *laneProg) {
	B := lp.lanes
	st.laneG = resizeF(st.laneG, len(st.ops)*B)
	st.laneUni = resizeBool(st.laneUni, len(st.ops))
	for i := range st.ops {
		a := int(st.aux[i])
		src := lp.gain[a*B : (a+1)*B]
		copy(st.laneG[i*B:(i+1)*B], src)
		u := true
		for l := 1; l < B; l++ {
			if src[l] != src[0] {
				u = false
				break
			}
		}
		st.laneUni[i] = u
	}
	st.laneCraw = resizeF(st.laneCraw, len(st.ops)*B)
	for _, sg := range st.segs {
		if sg.op != opConst {
			continue
		}
		for i := int(sg.start); i < int(sg.end); i++ {
			a := int(st.aux[i])
			copy(st.laneCraw[i*B:(i+1)*B], lp.craw[a*B:(a+1)*B])
		}
	}
}

// syncLanes brings the fused kernel's materialised lane state current with
// the simulator's scalar fold and lane fold generations, returning the
// lane width. Shared by the fast and record lane entry points.
func (f *fusedProg) syncLanes(s *Simulator) int {
	if f.syncedGen != f.p.foldGen {
		f.syncFold()
	}
	lp := s.lprog
	if f.syncedLaneGen != lp.foldGen {
		f.cone.syncFoldLanes(lp)
		f.rec.syncFoldLanes(lp)
		f.syncedLaneGen = lp.foldGen
	}
	return lp.lanes
}

// evalLanes is the lane-batched trial evaluation: the fused segment walk
// over the cone with an inner loop streaming B lanes per op record.
func (f *fusedProg) evalLanes(s *Simulator, ts, state []float64) {
	B := f.syncLanes(s)
	f.runSegsLanes(s, ts, state, &f.cone, B)
}

// runSegsLanes executes a materialised stream over all B lanes: the
// scalar runSegs loops with an inner lane dimension. Per-lane constants come
// from the stream's laneG; offsets are physical and shared; ops marked
// uniform in laneUni broadcast one gain load across the lane loop
// instead of streaming B identical copies — the value is the same, so
// lanes stay bit-identical either way. Every lane's per-net accumulation
// order is the scalar stream order, so each lane is bit-identical to a
// scalar run with that lane's parameters.
//
// Where the CPU has them, the AVX2 kernels run the state and linear
// segments and stop at the first op with a lane beyond full scale: that
// one op runs in the Go loop (soft saturation lives only there), and the
// kernel resumes at the next.
func (f *fusedProg) runSegsLanes(s *Simulator, ts, state []float64, st *fusedStream, B int) {
	p := f.p
	fs := s.nl.cfg.FullScale
	sat := s.nl.cfg.SatLevel
	nv := s.laneNets
	avx := laneAVX
	for _, sg := range st.segs {
		ops := st.ops[sg.start:sg.end]
		lg := st.laneG[int(sg.start)*B : int(sg.end)*B]
		un := st.laneUni[sg.start:sg.end]
		switch {
		case sg.op == opConst && sg.store:
			for i := range ops {
				o := &ops[i]
				dst := nv[int(o.out)*B : int(o.out)*B+B]
				src := lg[i*B : i*B+B]
				for l := range dst {
					dst[l] = 0 + src[l]
				}
			}
		case sg.op == opConst:
			for i := range ops {
				o := &ops[i]
				dst := nv[int(o.out)*B : int(o.out)*B+B]
				src := lg[i*B : i*B+B]
				for l := range dst {
					dst[l] += src[l]
				}
			}
		case sg.op == opState && sg.store:
			for i := 0; i < len(ops); i++ {
				if avx {
					if i += laneSegState16(&ops[i], len(ops)-i, &nv[0], &state[0], fs, true); i == len(ops) {
						break
					}
				}
				o := &ops[i]
				dst := nv[int(o.out)*B : int(o.out)*B+B]
				src := state[int(o.in0)*B : int(o.in0)*B+B]
				for l := range dst {
					v := src[l]
					if math.Abs(v) > fs { // one predictable branch; NaN passes through
						if v > fs {
							v = fs + (sat-fs)*math.Tanh((v-fs)/(sat-fs))
						} else {
							v = -fs - (sat-fs)*math.Tanh((-v-fs)/(sat-fs))
						}
					}
					dst[l] = 0 + v
				}
			}
		case sg.op == opState:
			for i := 0; i < len(ops); i++ {
				if avx {
					if i += laneSegState16(&ops[i], len(ops)-i, &nv[0], &state[0], fs, false); i == len(ops) {
						break
					}
				}
				o := &ops[i]
				dst := nv[int(o.out)*B : int(o.out)*B+B]
				src := state[int(o.in0)*B : int(o.in0)*B+B]
				for l := range dst {
					v := src[l]
					if math.Abs(v) > fs { // one predictable branch; NaN passes through
						if v > fs {
							v = fs + (sat-fs)*math.Tanh((v-fs)/(sat-fs))
						} else {
							v = -fs - (sat-fs)*math.Tanh((-v-fs)/(sat-fs))
						}
					}
					dst[l] += v
				}
			}
		case sg.op == opInput:
			auxs := st.aux[sg.start:sg.end]
			for i := range ops {
				o := &ops[i]
				fn := p.blk[auxs[i]].Stimulus
				dst := nv[int(o.out)*B : int(o.out)*B+B]
				for l := range dst {
					var v float64
					if fn != nil {
						v = fn(ts[l])
					}
					if math.Abs(v) > fs {
						if v > fs {
							v = fs + (sat-fs)*math.Tanh((v-fs)/(sat-fs))
						} else {
							v = -fs - (sat-fs)*math.Tanh((-v-fs)/(sat-fs))
						}
					}
					if sg.store {
						dst[l] = 0 + v
					} else {
						dst[l] += v
					}
				}
			}
		case sg.op == opLinear && sg.store:
			for i := 0; i < len(ops); i++ {
				if avx {
					if i += laneSegLin16(&ops[i], len(ops)-i, &nv[0], &lg[i*B], &un[i], fs, true); i == len(ops) {
						break
					}
				}
				o := &ops[i]
				dst := nv[int(o.out)*B : int(o.out)*B+B]
				src := nv[int(o.in0)*B : int(o.in0)*B+B]
				off := o.off
				if un[i] {
					g0 := lg[i*B]
					for l := range dst {
						v := g0*src[l] + off
						if math.Abs(v) > fs { // one predictable branch; NaN passes through
							if v > fs {
								v = fs + (sat-fs)*math.Tanh((v-fs)/(sat-fs))
							} else {
								v = -fs - (sat-fs)*math.Tanh((-v-fs)/(sat-fs))
							}
						}
						dst[l] = 0 + v
					}
					continue
				}
				g := lg[i*B : i*B+B]
				for l := range dst {
					v := g[l]*src[l] + off
					if math.Abs(v) > fs { // one predictable branch; NaN passes through
						if v > fs {
							v = fs + (sat-fs)*math.Tanh((v-fs)/(sat-fs))
						} else {
							v = -fs - (sat-fs)*math.Tanh((-v-fs)/(sat-fs))
						}
					}
					dst[l] = 0 + v
				}
			}
		case sg.op == opLinear:
			for i := 0; i < len(ops); i++ {
				if avx {
					if i += laneSegLin16(&ops[i], len(ops)-i, &nv[0], &lg[i*B], &un[i], fs, false); i == len(ops) {
						break
					}
				}
				o := &ops[i]
				dst := nv[int(o.out)*B : int(o.out)*B+B]
				src := nv[int(o.in0)*B : int(o.in0)*B+B]
				off := o.off
				if un[i] {
					g0 := lg[i*B]
					for l := range dst {
						v := g0*src[l] + off
						if math.Abs(v) > fs { // one predictable branch; NaN passes through
							if v > fs {
								v = fs + (sat-fs)*math.Tanh((v-fs)/(sat-fs))
							} else {
								v = -fs - (sat-fs)*math.Tanh((-v-fs)/(sat-fs))
							}
						}
						dst[l] += v
					}
					continue
				}
				g := lg[i*B : i*B+B]
				for l := range dst {
					v := g[l]*src[l] + off
					if math.Abs(v) > fs { // one predictable branch; NaN passes through
						if v > fs {
							v = fs + (sat-fs)*math.Tanh((v-fs)/(sat-fs))
						} else {
							v = -fs - (sat-fs)*math.Tanh((-v-fs)/(sat-fs))
						}
					}
					dst[l] += v
				}
			}
		case sg.op == opVarMul:
			in1s := st.in1[sg.start:sg.end]
			for i := range ops {
				o := &ops[i]
				dst := nv[int(o.out)*B : int(o.out)*B+B]
				src0 := nv[int(o.in0)*B : int(o.in0)*B+B]
				src1 := nv[int(in1s[i])*B : int(in1s[i])*B+B]
				g := lg[i*B : i*B+B]
				off := o.off
				for l := range dst {
					v := g[l]*(src0[l]*src1[l]/fs) + off
					if math.Abs(v) > fs {
						if v > fs {
							v = fs + (sat-fs)*math.Tanh((v-fs)/(sat-fs))
						} else {
							v = -fs - (sat-fs)*math.Tanh((-v-fs)/(sat-fs))
						}
					}
					if sg.store {
						dst[l] = 0 + v
					} else {
						dst[l] += v
					}
				}
			}
		case sg.op == opLUT:
			auxs := st.aux[sg.start:sg.end]
			for i := range ops {
				o := &ops[i]
				tab := p.tab[auxs[i]]
				dst := nv[int(o.out)*B : int(o.out)*B+B]
				src := nv[int(o.in0)*B : int(o.in0)*B+B]
				g := lg[i*B : i*B+B]
				off := o.off
				for l := range dst {
					idx := lutIndex(src[l], fs, len(tab))
					v := g[l]*tab[idx] + off
					if math.Abs(v) > fs {
						if v > fs {
							v = fs + (sat-fs)*math.Tanh((v-fs)/(sat-fs))
						} else {
							v = -fs - (sat-fs)*math.Tanh((-v-fs)/(sat-fs))
						}
					}
					if sg.store {
						dst[l] = 0 + v
					} else {
						dst[l] += v
					}
				}
			}
		}
	}
}

// evalLanesRecord is the lane-batched record-mode evaluation: the cone
// stream then the record stream, with the per-lane peak tracking folded
// into each loop — evalRecord with an inner lane dimension.
func (f *fusedProg) evalLanesRecord(s *Simulator, ts, state []float64) {
	B := f.syncLanes(s)
	f.runSegsLanesRecord(s, ts, state, &f.cone, B)
	f.runSegsLanesRecord(s, ts, state, &f.rec, B)
}

// runSegsLanesRecord is runSegsLanes with the record-mode bookkeeping in
// every loop: each op's raw value updates the owning block's per-lane
// peak tracker before saturation. opConst values come
// pre-saturated from the lane fold (laneG); their raws come from
// laneCraw, exactly as the scalar fold keeps craw beside cval. The
// AVX2 kernels hand back saturating ops one at a time, as in
// runSegsLanes.
func (f *fusedProg) runSegsLanesRecord(s *Simulator, ts, state []float64, st *fusedStream, B int) {
	p := f.p
	fs := s.nl.cfg.FullScale
	sat := s.nl.cfg.SatLevel
	nv := s.laneNets
	lanePeak := s.peak
	avx := laneAVX
	for _, sg := range st.segs {
		ops := st.ops[sg.start:sg.end]
		ids := st.ids[sg.start:sg.end]
		lg := st.laneG[int(sg.start)*B : int(sg.end)*B]
		un := st.laneUni[sg.start:sg.end]
		switch {
		case sg.op == opConst:
			cr := st.laneCraw[int(sg.start)*B : int(sg.end)*B]
			for i := range ops {
				o := &ops[i]
				id := int(ids[i])
				dst := nv[int(o.out)*B : int(o.out)*B+B]
				cv := lg[i*B : i*B+B]
				raws := cr[i*B : i*B+B]
				pk := lanePeak[id*B : id*B+B]
				for l := range dst {
					a := math.Abs(raws[l])
					if a > pk[l] {
						pk[l] = a
					}
					if sg.store {
						dst[l] = 0 + cv[l]
					} else {
						dst[l] += cv[l]
					}
				}
			}
		case sg.op == opState:
			for i := 0; i < len(ops); i++ {
				if avx {
					if i += laneSegState16Rec(&ops[i], &ids[i], len(ops)-i, &nv[0], &state[0], &lanePeak[0], fs, sg.store); i == len(ops) {
						break
					}
				}
				o := &ops[i]
				id := int(ids[i])
				dst := nv[int(o.out)*B : int(o.out)*B+B]
				src := state[int(o.in0)*B : int(o.in0)*B+B]
				pk := lanePeak[id*B : id*B+B]
				for l := range dst {
					v := src[l]
					a := math.Abs(v)
					if a > pk[l] {
						pk[l] = a
					}
					if a > fs { // NaN skips saturation, as in the scalar walk
						if v > fs {
							v = fs + (sat-fs)*math.Tanh((v-fs)/(sat-fs))
						} else {
							v = -fs - (sat-fs)*math.Tanh((-v-fs)/(sat-fs))
						}
					}
					if sg.store {
						dst[l] = 0 + v
					} else {
						dst[l] += v
					}
				}
			}
		case sg.op == opInput:
			auxs := st.aux[sg.start:sg.end]
			for i := range ops {
				o := &ops[i]
				id := int(ids[i])
				fn := p.blk[auxs[i]].Stimulus
				dst := nv[int(o.out)*B : int(o.out)*B+B]
				pk := lanePeak[id*B : id*B+B]
				for l := range dst {
					var v float64
					if fn != nil {
						v = fn(ts[l])
					}
					a := math.Abs(v)
					if a > pk[l] {
						pk[l] = a
					}
					if a > fs {
						if v > fs {
							v = fs + (sat-fs)*math.Tanh((v-fs)/(sat-fs))
						} else {
							v = -fs - (sat-fs)*math.Tanh((-v-fs)/(sat-fs))
						}
					}
					if sg.store {
						dst[l] = 0 + v
					} else {
						dst[l] += v
					}
				}
			}
		case sg.op == opLinear && sg.store:
			for i := 0; i < len(ops); i++ {
				if avx {
					if i += laneSegLin16Rec(&ops[i], &ids[i], len(ops)-i, &nv[0], &lg[i*B], &un[i], &lanePeak[0], fs, true); i == len(ops) {
						break
					}
				}
				o := &ops[i]
				id := int(ids[i])
				dst := nv[int(o.out)*B : int(o.out)*B+B]
				src := nv[int(o.in0)*B : int(o.in0)*B+B]
				pk := lanePeak[id*B : id*B+B]
				off := o.off
				if un[i] {
					g0 := lg[i*B]
					for l := range dst {
						v := g0*src[l] + off
						a := math.Abs(v)
						if a > pk[l] {
							pk[l] = a
						}
						if a > fs {
							if v > fs {
								v = fs + (sat-fs)*math.Tanh((v-fs)/(sat-fs))
							} else {
								v = -fs - (sat-fs)*math.Tanh((-v-fs)/(sat-fs))
							}
						}
						dst[l] = 0 + v
					}
					continue
				}
				g := lg[i*B : i*B+B]
				for l := range dst {
					v := g[l]*src[l] + off
					a := math.Abs(v)
					if a > pk[l] {
						pk[l] = a
					}
					if a > fs {
						if v > fs {
							v = fs + (sat-fs)*math.Tanh((v-fs)/(sat-fs))
						} else {
							v = -fs - (sat-fs)*math.Tanh((-v-fs)/(sat-fs))
						}
					}
					dst[l] = 0 + v
				}
			}
		case sg.op == opLinear:
			for i := 0; i < len(ops); i++ {
				if avx {
					if i += laneSegLin16Rec(&ops[i], &ids[i], len(ops)-i, &nv[0], &lg[i*B], &un[i], &lanePeak[0], fs, false); i == len(ops) {
						break
					}
				}
				o := &ops[i]
				id := int(ids[i])
				dst := nv[int(o.out)*B : int(o.out)*B+B]
				src := nv[int(o.in0)*B : int(o.in0)*B+B]
				pk := lanePeak[id*B : id*B+B]
				off := o.off
				if un[i] {
					g0 := lg[i*B]
					for l := range dst {
						v := g0*src[l] + off
						a := math.Abs(v)
						if a > pk[l] {
							pk[l] = a
						}
						if a > fs {
							if v > fs {
								v = fs + (sat-fs)*math.Tanh((v-fs)/(sat-fs))
							} else {
								v = -fs - (sat-fs)*math.Tanh((-v-fs)/(sat-fs))
							}
						}
						dst[l] += v
					}
					continue
				}
				g := lg[i*B : i*B+B]
				for l := range dst {
					v := g[l]*src[l] + off
					a := math.Abs(v)
					if a > pk[l] {
						pk[l] = a
					}
					if a > fs {
						if v > fs {
							v = fs + (sat-fs)*math.Tanh((v-fs)/(sat-fs))
						} else {
							v = -fs - (sat-fs)*math.Tanh((-v-fs)/(sat-fs))
						}
					}
					dst[l] += v
				}
			}
		case sg.op == opVarMul:
			in1s := st.in1[sg.start:sg.end]
			for i := range ops {
				o := &ops[i]
				id := int(ids[i])
				dst := nv[int(o.out)*B : int(o.out)*B+B]
				src0 := nv[int(o.in0)*B : int(o.in0)*B+B]
				src1 := nv[int(in1s[i])*B : int(in1s[i])*B+B]
				pk := lanePeak[id*B : id*B+B]
				g := lg[i*B : i*B+B]
				off := o.off
				for l := range dst {
					v := g[l]*(src0[l]*src1[l]/fs) + off
					a := math.Abs(v)
					if a > pk[l] {
						pk[l] = a
					}
					if a > fs {
						if v > fs {
							v = fs + (sat-fs)*math.Tanh((v-fs)/(sat-fs))
						} else {
							v = -fs - (sat-fs)*math.Tanh((-v-fs)/(sat-fs))
						}
					}
					if sg.store {
						dst[l] = 0 + v
					} else {
						dst[l] += v
					}
				}
			}
		case sg.op == opLUT:
			auxs := st.aux[sg.start:sg.end]
			for i := range ops {
				o := &ops[i]
				id := int(ids[i])
				tab := p.tab[auxs[i]]
				dst := nv[int(o.out)*B : int(o.out)*B+B]
				src := nv[int(o.in0)*B : int(o.in0)*B+B]
				pk := lanePeak[id*B : id*B+B]
				g := lg[i*B : i*B+B]
				off := o.off
				for l := range dst {
					idx := lutIndex(src[l], fs, len(tab))
					v := g[l]*tab[idx] + off
					a := math.Abs(v)
					if a > pk[l] {
						pk[l] = a
					}
					if a > fs {
						if v > fs {
							v = fs + (sat-fs)*math.Tanh((v-fs)/(sat-fs))
						} else {
							v = -fs - (sat-fs)*math.Tanh((-v-fs)/(sat-fs))
						}
					}
					if sg.store {
						dst[l] = 0 + v
					} else {
						dst[l] += v
					}
				}
			}
		}
	}
}

// lutIndex maps an input voltage to a table index, clamping out-of-range
// inputs to the end entries. NaN (only reachable through a pathological
// user stimulus or table) maps to index 0 instead of feeding an
// implementation-defined int conversion: every engine uses this helper,
// so the choice is consistent.
func lutIndex(in, fs float64, tabLen int) int {
	idx := 0
	if r := math.Round((in + fs) / (2 * fs) * float64(tabLen-1)); !math.IsNaN(r) {
		idx = int(r)
	}
	if idx < 0 {
		idx = 0
	}
	if idx >= tabLen {
		idx = tabLen - 1
	}
	return idx
}
