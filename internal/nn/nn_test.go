package nn

import (
	"math"
	"math/rand"
	"testing"

	"mavfi/internal/testutil"
)

func TestDenseForwardShape(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := NewDense(4, 3, Identity, rng)
	out := d.Forward([]float64{1, 2, 3, 4})
	if len(out) != 3 {
		t.Fatalf("output size %d", len(out))
	}
	defer func() {
		if recover() == nil {
			t.Error("no panic on wrong input size")
		}
	}()
	d.Forward([]float64{1, 2})
}

func TestActivations(t *testing.T) {
	if Tanh.apply(0) != 0 || math.Abs(Tanh.apply(100)-1) > 1e-9 {
		t.Error("tanh misbehaves")
	}
	if ReLU.apply(-3) != 0 || ReLU.apply(3) != 3 {
		t.Error("relu misbehaves")
	}
	if Identity.apply(2.5) != 2.5 {
		t.Error("identity misbehaves")
	}
	if ReLU.derivFromOut(0) != 0 || ReLU.derivFromOut(5) != 1 {
		t.Error("relu derivative")
	}
	if Identity.derivFromOut(42) != 1 {
		t.Error("identity derivative")
	}
	// tanh'(x) = 1 - tanh(x)^2 expressed from the output.
	y := Tanh.apply(0.7)
	if math.Abs(Tanh.derivFromOut(y)-(1-y*y)) > 1e-12 {
		t.Error("tanh derivative")
	}
}

// TestGradientNumerical verifies backprop gradients against central finite
// differences on a small random network.
func TestGradientNumerical(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	net := NewNetwork([]int{3, 4, 2}, []Activation{Tanh, Identity}, rng)
	x := []float64{0.3, -0.7, 1.1}
	target := []float64{0.5, -0.25}

	// Analytic gradients.
	net.Forward(x)
	net.BackwardMSE(target)

	const eps = 1e-6
	for li, layer := range net.Layers {
		for i := 0; i < layer.Out; i++ {
			for j := 0; j < layer.In; j++ {
				k := i*layer.In + j
				analytic := layer.gW[k]
				orig := layer.W[k]
				layer.W[k] = orig + eps
				lossPlus := MSE(net.Forward(x), target)
				layer.W[k] = orig - eps
				lossMinus := MSE(net.Forward(x), target)
				layer.W[k] = orig
				numeric := (lossPlus - lossMinus) / (2 * eps)
				if math.Abs(analytic-numeric) > 1e-5*(1+math.Abs(numeric)) {
					t.Fatalf("layer %d W[%d][%d]: analytic %v vs numeric %v", li, i, j, analytic, numeric)
				}
			}
			// Bias gradient.
			analytic := layer.gB[i]
			orig := layer.B[i]
			layer.B[i] = orig + eps
			lossPlus := MSE(net.Forward(x), target)
			layer.B[i] = orig - eps
			lossMinus := MSE(net.Forward(x), target)
			layer.B[i] = orig
			numeric := (lossPlus - lossMinus) / (2 * eps)
			if math.Abs(analytic-numeric) > 1e-5*(1+math.Abs(numeric)) {
				t.Fatalf("layer %d B[%d]: analytic %v vs numeric %v", li, i, analytic, numeric)
			}
		}
	}
}

func TestAdamReducesLossOnToyProblem(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	// Learn a 2-D identity through a 2-3-2 network.
	net := NewNetwork([]int{2, 3, 2}, []Activation{Tanh, Identity}, rng)
	adam := DefaultAdam()
	adam.LR = 0.01
	data := make([][]float64, 64)
	for i := range data {
		data[i] = []float64{rng.Float64()*2 - 1, rng.Float64()*2 - 1}
	}
	lossAt := func() float64 {
		sum := 0.0
		for _, s := range data {
			sum += MSE(net.Forward(s), s)
		}
		return sum / float64(len(data))
	}
	before := lossAt()
	for epoch := 0; epoch < 200; epoch++ {
		for _, s := range data {
			net.Forward(s)
			net.BackwardMSE(s)
		}
		net.AdamStep(adam, len(data))
	}
	after := lossAt()
	if after > before*0.2 {
		t.Errorf("loss %v → %v: insufficient training progress", before, after)
	}
}

func TestBackwardMSEReturnsLoss(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	net := NewNetwork([]int{2, 2}, []Activation{Identity}, rng)
	y := net.Forward([]float64{1, 1})
	target := []float64{y[0] + 1, y[1] - 1}
	loss := net.BackwardMSE(target)
	if math.Abs(loss-1.0) > 1e-12 { // MSE of (+1, −1) errors = 1
		t.Errorf("loss = %v", loss)
	}
}

func TestMSEPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic on length mismatch")
		}
	}()
	MSE([]float64{1}, []float64{1, 2})
}

func TestNetworkParams(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	// The paper's autoencoder: 13-6-3-13.
	net := NewNetwork([]int{13, 6, 3, 13}, []Activation{Tanh, Tanh, Identity}, rng)
	want := 13*6 + 6 + 6*3 + 3 + 3*13 + 13
	if got := net.Params(); got != want {
		t.Errorf("Params = %d, want %d", got, want)
	}
}

func TestNewNetworkValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	defer func() {
		if recover() == nil {
			t.Error("no panic on activation count mismatch")
		}
	}()
	NewNetwork([]int{2, 3, 2}, []Activation{Tanh}, rng)
}

func TestXavierInitBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := NewDense(10, 10, Tanh, rng)
	limit := math.Sqrt(6.0 / 20)
	for _, w := range d.W {
		if math.Abs(w) > limit {
			t.Fatalf("weight %v exceeds Xavier limit %v", w, limit)
		}
	}
	for i := range d.B {
		if d.B[i] != 0 {
			t.Error("bias not zero-initialised")
		}
	}
}

func TestCloneForInferenceConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	net := NewNetwork([]int{13, 6, 3, 6, 13}, []Activation{Tanh, Tanh, Tanh, Identity}, rng)
	x := make([]float64, 13)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	want := append([]float64(nil), net.Forward(x)...)

	// Clones share weights but not scratch: concurrent Forward calls must
	// neither race (checked under -race) nor perturb each other's outputs.
	const clones = 8
	outs := make([][]float64, clones)
	done := make(chan int, clones)
	for c := 0; c < clones; c++ {
		go func(c int) {
			cl := net.CloneForInference()
			var out []float64
			for iter := 0; iter < 200; iter++ {
				out = cl.Forward(x)
			}
			outs[c] = append([]float64(nil), out...)
			done <- c
		}(c)
	}
	for c := 0; c < clones; c++ {
		<-done
	}
	for c, out := range outs {
		for i := range want {
			if math.Abs(out[i]-want[i]) > 1e-15 {
				t.Fatalf("clone %d output[%d] = %v, want %v", c, i, out[i], want[i])
			}
		}
	}
}

// TestTrainStepAllocFree pins that a training step (Forward, BackwardMSE,
// AdamStep) allocates nothing once the network's buffers exist: Backward
// and BackwardMSE reuse per-layer and per-network gradient buffers.
func TestTrainStepAllocFree(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("alloc counts are meaningless under -race instrumentation")
	}
	rng := rand.New(rand.NewSource(4))
	net := aadShape(rng)
	cfg := DefaultAdam()
	x := make([]float64, 13)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	step := func() {
		net.Forward(x)
		net.BackwardMSE(x)
		net.AdamStep(cfg, 1)
	}
	step()
	if allocs := testing.AllocsPerRun(100, step); allocs != 0 {
		t.Fatalf("training step allocates %v objects, want 0", allocs)
	}
}
