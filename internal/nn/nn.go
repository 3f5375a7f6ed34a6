// Package nn is the from-scratch neural-network substrate for the
// autoencoder-based anomaly detector: fully connected layers, tanh/ReLU/
// identity activations, mean-squared-error loss, and the Adam optimiser —
// the pieces the paper's AAD training procedure needs, with no external
// dependencies.
package nn

import (
	"fmt"
	"math"
	"math/rand"
)

// Activation selects a layer's nonlinearity.
type Activation int

const (
	// Identity is a linear layer.
	Identity Activation = iota
	// Tanh is the hyperbolic tangent.
	Tanh
	// ReLU is the rectified linear unit.
	ReLU
)

func (a Activation) apply(x float64) float64 {
	switch a {
	case Tanh:
		return math.Tanh(x)
	case ReLU:
		if x < 0 {
			return 0
		}
		return x
	default:
		return x
	}
}

// derivFromOut returns dσ/dx given the activation output y (all three
// activations here admit that form, avoiding a stored pre-activation).
func (a Activation) derivFromOut(y float64) float64 {
	switch a {
	case Tanh:
		return 1 - y*y
	case ReLU:
		if y > 0 {
			return 1
		}
		return 0
	default:
		return 1
	}
}

// Dense is one fully connected layer with weights W (row-major, Out×In:
// W[i*In+j] connects input j to output i) and bias B. Weights, Adam
// moments, and gradients are single contiguous slices rather than
// slice-of-slice matrices: one cache-friendly block each, no per-row
// headers, and no pointer chase in the inner loops.
type Dense struct {
	In, Out int
	Act     Activation
	W       []float64 // row-major [Out*In]
	B       []float64

	// Adam moments, same layout as W / B.
	mW, vW []float64
	mB, vB []float64

	// Forward caches for backprop.
	input  []float64
	output []float64

	// gradIn is Backward's result buffer, reused across calls.
	gradIn []float64

	// Gradients accumulated by Backward, same layout as W / B.
	gW []float64
	gB []float64
}

// Row returns output neuron i's weight row, aliasing the layer storage.
func (d *Dense) Row(i int) []float64 { return d.W[i*d.In : (i+1)*d.In] }

// NewDense creates a layer with Xavier/Glorot-uniform initialisation drawn
// from rng.
func NewDense(in, out int, act Activation, rng *rand.Rand) *Dense {
	limit := math.Sqrt(6.0 / float64(in+out))
	d := &Dense{In: in, Out: out, Act: act}
	d.W = make([]float64, out*in)
	d.mW = make([]float64, out*in)
	d.vW = make([]float64, out*in)
	d.gW = make([]float64, out*in)
	d.B = make([]float64, out)
	d.mB = make([]float64, out)
	d.vB = make([]float64, out)
	d.gB = make([]float64, out)
	for i := 0; i < out; i++ {
		for j := 0; j < in; j++ {
			d.W[i*in+j] = (rng.Float64()*2 - 1) * limit
		}
	}
	return d
}

// Forward computes the layer output for x, caching what Backward needs.
func (d *Dense) Forward(x []float64) []float64 {
	if len(x) != d.In {
		panic(fmt.Sprintf("nn: layer expects %d inputs, got %d", d.In, len(x)))
	}
	d.input = x
	if d.output == nil {
		d.output = make([]float64, d.Out)
	}
	for i := 0; i < d.Out; i++ {
		sum := d.B[i]
		w := d.Row(i)
		for j := 0; j < d.In; j++ {
			sum += w[j] * x[j]
		}
		d.output[i] = d.Act.apply(sum)
	}
	return d.output
}

// Backward consumes dL/dOut, accumulates weight gradients, and returns
// dL/dIn. The result aliases a buffer the layer reuses: it is valid until
// the layer's next Backward call.
func (d *Dense) Backward(gradOut []float64) []float64 {
	if d.gradIn == nil {
		d.gradIn = make([]float64, d.In)
	}
	gradIn := d.gradIn
	clear(gradIn)
	for i := 0; i < d.Out; i++ {
		g := gradOut[i] * d.Act.derivFromOut(d.output[i])
		d.gB[i] += g
		w := d.Row(i)
		gw := d.gW[i*d.In : (i+1)*d.In]
		for j := 0; j < d.In; j++ {
			gw[j] += g * d.input[j]
			gradIn[j] += g * w[j]
		}
	}
	return gradIn
}

// Network is a feed-forward stack of dense layers.
type Network struct {
	Layers []*Dense
	step   int       // Adam time step
	grad   []float64 // BackwardMSE's dL/dOut buffer, reused across calls
}

// NewNetwork builds a stack where sizes gives the neuron count per layer
// including the input, e.g. sizes=[13,6,3,13] with acts for each weight
// layer (len(sizes)-1 entries).
func NewNetwork(sizes []int, acts []Activation, rng *rand.Rand) *Network {
	if len(acts) != len(sizes)-1 {
		panic("nn: need one activation per weight layer")
	}
	n := &Network{}
	for i := 0; i < len(sizes)-1; i++ {
		n.Layers = append(n.Layers, NewDense(sizes[i], sizes[i+1], acts[i], rng))
	}
	return n
}

// CloneForInference returns a copy that shares the trained weight and bias
// storage but carries its own forward-pass scratch, so concurrent Forward
// calls on distinct clones do not race. Clones are inference-only: training
// one (Backward/Step) would both race on and corrupt the shared weights.
func (n *Network) CloneForInference() *Network {
	c := &Network{step: n.step}
	for _, l := range n.Layers {
		c.Layers = append(c.Layers, &Dense{In: l.In, Out: l.Out, Act: l.Act, W: l.W, B: l.B})
	}
	return c
}

// Forward runs the network on x.
func (n *Network) Forward(x []float64) []float64 {
	for _, l := range n.Layers {
		x = l.Forward(x)
	}
	return x
}

// MSE returns the mean squared error between prediction y and target t.
func MSE(y, t []float64) float64 {
	if len(y) != len(t) {
		panic("nn: MSE length mismatch")
	}
	sum := 0.0
	for i := range y {
		d := y[i] - t[i]
		sum += d * d
	}
	return sum / float64(len(y))
}

// BackwardMSE backpropagates the MSE loss for the last Forward call with
// target t, accumulating gradients in every layer. It returns the loss.
func (n *Network) BackwardMSE(t []float64) float64 {
	last := n.Layers[len(n.Layers)-1]
	y := last.output
	loss := MSE(y, t)
	if n.grad == nil {
		n.grad = make([]float64, len(y))
	}
	grad := n.grad
	for i := range y {
		grad[i] = 2 * (y[i] - t[i]) / float64(len(y))
	}
	for i := len(n.Layers) - 1; i >= 0; i-- {
		grad = n.Layers[i].Backward(grad)
	}
	return loss
}

// AdamConfig holds the optimiser hyper-parameters.
type AdamConfig struct {
	LR      float64
	Beta1   float64
	Beta2   float64
	Epsilon float64
}

// DefaultAdam returns the standard Adam settings (lr=1e-3).
func DefaultAdam() AdamConfig {
	return AdamConfig{LR: 1e-3, Beta1: 0.9, Beta2: 0.999, Epsilon: 1e-8}
}

// AdamStep applies one Adam update from the accumulated gradients (averaged
// over batchSize samples) and clears them.
func (n *Network) AdamStep(cfg AdamConfig, batchSize int) {
	n.step++
	t := float64(n.step)
	bc1 := 1 - math.Pow(cfg.Beta1, t)
	bc2 := 1 - math.Pow(cfg.Beta2, t)
	inv := 1.0
	if batchSize > 0 {
		inv = 1 / float64(batchSize)
	}
	for _, l := range n.Layers {
		for i := 0; i < l.Out; i++ {
			base := i * l.In
			for j := 0; j < l.In; j++ {
				k := base + j
				g := l.gW[k] * inv
				l.mW[k] = cfg.Beta1*l.mW[k] + (1-cfg.Beta1)*g
				l.vW[k] = cfg.Beta2*l.vW[k] + (1-cfg.Beta2)*g*g
				mHat := l.mW[k] / bc1
				vHat := l.vW[k] / bc2
				l.W[k] -= cfg.LR * mHat / (math.Sqrt(vHat) + cfg.Epsilon)
				l.gW[k] = 0
			}
			g := l.gB[i] * inv
			l.mB[i] = cfg.Beta1*l.mB[i] + (1-cfg.Beta1)*g
			l.vB[i] = cfg.Beta2*l.vB[i] + (1-cfg.Beta2)*g*g
			mHat := l.mB[i] / bc1
			vHat := l.vB[i] / bc2
			l.B[i] -= cfg.LR * mHat / (math.Sqrt(vHat) + cfg.Epsilon)
			l.gB[i] = 0
		}
	}
}

// Params counts trainable parameters, used for overhead accounting.
func (n *Network) Params() int {
	total := 0
	for _, l := range n.Layers {
		total += l.In*l.Out + l.Out
	}
	return total
}
