package detect

import (
	"math"
	"math/rand"
	"sort"

	"mavfi/internal/faultinject"
	"mavfi/internal/nn"
	"mavfi/internal/stats"
)

// AAD is the autoencoder-based anomaly detection scheme (§IV-D): a single
// small fully connected autoencoder consumes the preprocessed deltas of all
// 13 monitored states at once, learning the correlations among inter-kernel
// states during unsupervised training on error-free flights. At inference, a
// reconstruction error (MSE) above the trained threshold raises the alarm,
// which triggers recomputation of the control stage only — the cheapest
// recovery point, since stopping the corrupted command from being issued is
// sufficient to cease error propagation.
type AAD struct {
	net *nn.Network

	// mean/std standardise each input dimension from training statistics.
	mean [NumStates]float64
	std  [NumStates]float64

	// Threshold is the alarm bound on reconstruction MSE: the upper bound
	// of the reconstruction error over the error-free training data,
	// scaled by Margin.
	Threshold float64
	// Margin scales the trained threshold (1.0 reproduces the paper).
	Margin float64

	trained bool

	// in is reconError's standardised-input buffer. Clone copies it by
	// value, so every clone owns its own.
	in [NumStates]float64
}

// AADConfig configures the autoencoder architecture and training.
type AADConfig struct {
	// Hidden and Bottleneck give the encoder sizes: input 13 → Hidden →
	// Bottleneck, mirrored by the decoder back to 13. The paper's
	// architecture is Hidden=6, Bottleneck=3.
	Hidden     int
	Bottleneck int
	// Epochs and BatchSize control Adam training.
	Epochs    int
	BatchSize int
	// LR overrides the Adam learning rate when non-zero.
	LR float64
	// ThresholdPercentile sets the alarm threshold at this percentile of
	// the error-free reconstruction errors (default 92.5). The paper uses
	// the upper bound; a percentile is the robust equivalent when the
	// error-free corpus contains rare legitimate transients (braking,
	// gusts). AAD false alarms are nearly free — a 0.46 ms control
	// recomputation from last-good states — so the threshold sits low
	// enough to catch single-exponent displacement corruption.
	ThresholdPercentile float64
}

// DefaultAADConfig returns the paper's architecture (13-6-3-13) and the
// training budget used in the experiments.
func DefaultAADConfig() AADConfig {
	return AADConfig{Hidden: 6, Bottleneck: 3, Epochs: 30, BatchSize: 32, ThresholdPercentile: 92.5}
}

// NewAAD builds an untrained autoencoder detector.
func NewAAD(cfg AADConfig, rng *rand.Rand) *AAD {
	sizes := []int{NumStates, cfg.Hidden, cfg.Bottleneck, NumStates}
	acts := []nn.Activation{nn.Tanh, nn.Tanh, nn.Identity}
	return &AAD{
		net:    nn.NewNetwork(sizes, acts, rng),
		Margin: 1.0,
	}
}

// Name implements Detector.
func (a *AAD) Name() string { return "Autoencoder" }

// Reset implements Detector (the trained model persists across missions).
func (a *AAD) Reset() {}

// Trained reports whether Train has completed.
func (a *AAD) Trained() bool { return a.trained }

// Train fits the autoencoder on error-free preprocessed samples with Adam +
// MSE (unsupervised: target = input), then sets the alarm threshold to the
// maximum reconstruction error observed on the training data.
func (a *AAD) Train(data [][NumStates]float64, cfg AADConfig, rng *rand.Rand) {
	if len(data) == 0 {
		return
	}
	// Standardisation statistics.
	for d := 0; d < NumStates; d++ {
		sum := 0.0
		for _, s := range data {
			sum += s[d]
		}
		a.mean[d] = sum / float64(len(data))
		varSum := 0.0
		for _, s := range data {
			diff := s[d] - a.mean[d]
			varSum += diff * diff
		}
		a.std[d] = math.Sqrt(varSum / float64(len(data)))
		if a.std[d] < 1e-3 {
			a.std[d] = 1e-3
		}
	}

	adam := nn.DefaultAdam()
	if cfg.LR > 0 {
		adam.LR = cfg.LR
	}
	batch := cfg.BatchSize
	if batch < 1 {
		batch = 32
	}
	idx := make([]int, len(data))
	for i := range idx {
		idx[i] = i
	}
	x := make([]float64, NumStates)
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		for start := 0; start < len(idx); start += batch {
			end := start + batch
			if end > len(idx) {
				end = len(idx)
			}
			for _, i := range idx[start:end] {
				a.standardize(data[i], x)
				a.net.Forward(x)
				a.net.BackwardMSE(x)
			}
			a.net.AdamStep(adam, end-start)
		}
	}

	// Threshold: the (percentile-robust) upper bound of the reconstruction
	// error on error-free data (paper §IV-D).
	errs := make([]float64, 0, len(data))
	for _, s := range data {
		errs = append(errs, a.reconError(s))
	}
	sort.Float64s(errs)
	p := cfg.ThresholdPercentile
	if p <= 0 || p > 100 {
		p = 100
	}
	a.Threshold = stats.Percentile(errs, p) * a.Margin
	a.trained = true
}

// Clone returns an inference clone: it shares the trained weights and
// threshold but owns its forward-pass scratch, so parallel missions can each
// carry a clone and Observe concurrently. Clones must not be retrained.
func (a *AAD) Clone() *AAD {
	c := *a
	c.net = a.net.CloneForInference()
	return &c
}

func (a *AAD) standardize(s [NumStates]float64, out []float64) {
	for d := 0; d < NumStates; d++ {
		out[d] = (s[d] - a.mean[d]) / a.std[d]
	}
}

// reconError returns the reconstruction MSE for one sample, allocating
// nothing.
func (a *AAD) reconError(s [NumStates]float64) float64 {
	x := a.in[:]
	a.standardize(s, x)
	y := a.net.Forward(x)
	return nn.MSE(y, x)
}

// ReconError exposes the reconstruction error for tests and ablations.
func (a *AAD) ReconError(s [NumStates]float64) float64 { return a.reconError(s) }

// Observe implements Detector: alarm when the reconstruction error exceeds
// the trained threshold; recovery recomputes the control stage.
func (a *AAD) Observe(t float64, deltas [NumStates]float64) []Recovery {
	if !a.trained {
		return nil
	}
	e := a.reconError(deltas)
	// A NaN reconstruction error means non-finite inputs reached the
	// detector — unambiguously anomalous.
	if !math.IsNaN(e) && e <= a.Threshold {
		return nil
	}
	return []Recovery{{Stage: faultinject.StageControl, T: t}}
}

// Params returns the trainable parameter count (overhead accounting).
func (a *AAD) Params() int { return a.net.Params() }
