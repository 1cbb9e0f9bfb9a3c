package autodiff

import (
	"math/rand"
	"runtime"
	"testing"

	"github.com/sematype/pythagoras/internal/tensor"
)

// TestTapeReuseProducesIdenticalResults: a recycled tape must compute the
// same values and gradients as a fresh one — the arena hands back dirty
// buffers, so any op relying on zeroed storage it didn't zero would surface
// here.
func TestTapeReuseProducesIdenticalResults(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	x := randMat(rng, 5, 8)
	w1 := randMat(rng, 8, 6)
	w2 := randMat(rng, 6, 3)
	labels := []int{0, 2, 1, 1, 0}

	run := func(tape *Tape) (float64, *tensor.Matrix, *tensor.Matrix) {
		vx := tape.Constant(x)
		vw1, vw2 := tape.Param(w1), tape.Param(w2)
		h := tape.ReLU(tape.MatMul(vx, vw1))
		logits := tape.MatMul(h, vw2)
		loss := tape.SoftmaxCrossEntropy(logits, labels, nil)
		tape.Backward(loss)
		// Clone: grads live in the arena and die at the next Reset.
		return loss.Value.Data[0], vw1.Grad.Clone(), vw2.Grad.Clone()
	}

	fresh := NewTape()
	wantLoss, wantG1, wantG2 := run(fresh)

	reused := NewTape()
	for i := 0; i < 3; i++ {
		reused.Reset()
		loss, g1, g2 := run(reused)
		if loss != wantLoss {
			t.Fatalf("iteration %d: loss %v, want %v (recycled tape diverged)", i, loss, wantLoss)
		}
		if !tensor.Equal(g1, wantG1, 0) || !tensor.Equal(g2, wantG2, 0) {
			t.Fatalf("iteration %d: gradients differ on recycled tape", i)
		}
	}
}

// TestTapeSteadyStateAllocFree pins the arena's purpose: once a tape has
// grown its op slice, Var slab and matrix free lists to the shape of the
// computation, running the same forward+backward again allocates nothing.
func TestTapeSteadyStateAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	x := randMat(rng, 16, 32)
	w1 := randMat(rng, 32, 24)
	b1 := randMat(rng, 1, 24)
	w2 := randMat(rng, 24, 7)
	labels := make([]int, 16)
	for i := range labels {
		labels[i] = i % 7
	}

	tape := NewTape()
	step := func() {
		tape.Reset()
		vx := tape.Constant(x)
		h := tape.ReLU(tape.AddRow(tape.MatMul(vx, tape.Param(w1)), tape.Param(b1)))
		logits := tape.MatMul(h, tape.Param(w2))
		loss := tape.SoftmaxCrossEntropy(logits, labels, nil)
		tape.Backward(loss)
	}
	// Warm the arena: first run grows every pool to steady-state shape.
	step()
	step()
	if n := testing.AllocsPerRun(20, step); n != 0 {
		t.Errorf("steady-state forward+backward: %v allocs/op, want 0", n)
	}
}

// TestEdgeMixSteadyStateAllocFree covers the fused GNN op's hot path the
// same way — gather→matmul→scatter→normalize forward plus its backward.
func TestEdgeMixSteadyStateAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	h := randMat(rng, 12, 16)
	w := randMat(rng, 16, 16)
	src := []int{0, 1, 2, 3, 4, 0, 5}
	dst := []int{6, 6, 7, 8, 9, 9, 11}
	inv := make([]float64, 12)
	for _, d := range dst {
		inv[d]++
	}
	for i, c := range inv {
		if c > 0 {
			inv[i] = 1 / c
		}
	}
	labels := make([]int, 12)

	tape := NewTape()
	step := func() {
		tape.Reset()
		vh, vw := tape.Param(h), tape.Param(w)
		out := tape.EdgeMix(vh, vw, src, dst, 12, inv)
		loss := tape.SoftmaxCrossEntropy(out, labels, nil)
		tape.Backward(loss)
	}
	step()
	step()
	if n := testing.AllocsPerRun(20, step); n != 0 {
		t.Errorf("steady-state EdgeMix forward+backward: %v allocs/op, want 0", n)
	}
}

// mlpStep returns one forward+backward step of a small MLP over rows input
// rows. Inputs are built up front, so the step allocates only through the
// tape; its row-dependent arena matrices are rows×24 and rows×7.
func mlpStep(tape *Tape, rng *rand.Rand, rows int) func() {
	x := randMat(rng, rows, 32)
	w1, b1, w2 := randMat(rng, 32, 24), randMat(rng, 1, 24), randMat(rng, 24, 7)
	labels := make([]int, rows)
	for i := range labels {
		labels[i] = i % 7
	}
	return func() {
		tape.Reset()
		h := tape.ReLU(tape.AddRow(tape.MatMul(tape.Constant(x), tape.Param(w1)), tape.Param(b1)))
		tape.Backward(tape.SoftmaxCrossEntropy(tape.MatMul(h, tape.Param(w2)), labels, nil))
	}
}

func arenaBytes(ms []*tensor.Matrix) int {
	n := 0
	for _, m := range ms {
		n += 8 * cap(m.Data)
	}
	return n
}

// TestArenaRetentionBounded: a tape serving 200 distinct shapes — a lake
// scan's union batches — must not keep a buffer per shape ever served.
// Each op's buffer keeps at most one buffer per size class its sizes have
// spanned, and the ladder's classes up to a top class C sum to at most
// 6.5·C (26q per octave, halving per octave below, the floor class
// included), so retention after every Reset stays within 6.5× the largest
// single step's footprint — however many shapes went through. (Sizes that
// span at most two adjacent classes, as a band of near-equal batches may,
// keep at most 2×.)
func TestArenaRetentionBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	tape := NewTape()
	largest, worst := 0, 0.0
	for i := 0; i < 200; i++ {
		rows := 1 + (i*73)%200 // each of 1..200 once, in scattered order
		mlpStep(tape, rng, rows)()
		largest = max(largest, arenaBytes(tape.used))
		tape.Reset()
		retained := 0
		for _, list := range tape.free {
			retained += arenaBytes(list)
		}
		worst = max(worst, float64(retained)/float64(largest))
		if retained > 13*largest/2 {
			t.Fatalf("after %d steps the arena retains %d B, over 6.5× the largest step's %d B", i+1, retained, largest)
		}
	}
	t.Logf("worst retention: %.2f× the largest step", worst)
}

// TestArenaSameClassReuse: a step of N rows followed by one of N′ rows
// whose matrices all fall in the same size classes reuses every buffer —
// the second step allocates nothing.
func TestArenaSameClassReuse(t *testing.T) {
	const n, n2 = 120, 127
	rng := rand.New(rand.NewSource(25))
	tape := NewTape()
	first, second := mlpStep(tape, rng, n), mlpStep(tape, rng, n2)
	for _, w := range []int{24, 7} {
		if sizeClass(n*w) != sizeClass(n2*w) {
			t.Fatalf("precondition: %d×%d and %d×%d fall in different classes", n, w, n2, w)
		}
	}
	first()
	first()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	second()
	runtime.ReadMemStats(&after)
	if d := after.Mallocs - before.Mallocs; d != 0 {
		t.Errorf("step of %d rows after %d rows in the same classes: %d allocs, want 0", n2, n, d)
	}
}

func TestSizeClassLadder(t *testing.T) {
	for n, want := range map[int]int{0: 64, 1: 64, 64: 64, 65: 80, 80: 80, 81: 96, 128: 128, 129: 160, 1000: 1024, 1025: 1280} {
		if got := sizeClass(n); got != want {
			t.Errorf("sizeClass(%d) = %d, want %d", n, got, want)
		}
	}
	for n := 1; n < 1<<16; n++ {
		if c := sizeClass(n); c < n || (n > minClass && 4*c >= 5*n) {
			t.Fatalf("sizeClass(%d) = %d: below the request or over 25%% slack", n, c)
		}
	}
}
