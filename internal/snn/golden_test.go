package snn

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"testing"

	"snnsec/internal/autodiff"
	"snnsec/internal/nn"
	"snnsec/internal/tensor"
)

// goldenDigests pins the absolute bits of one taped forward plus a
// cross-entropy backward for every case of TestForwardBackwardGolden:
// SHA-256 over the Float64bits of the logits, the input gradient and
// every parameter gradient. Drift in any leak, threshold, reset,
// adaptation, surrogate or encoder expression shows up here, whether or
// not the taped and tape-free paths drift together (the serve
// equivalence suite only compares them with each other).
var goldenDigests = map[string]string{
	"lif/zero/current/spike_count":          "dad84d3781fbdda2e1564a60fc1d04c9b33c46cab34f2e9a518962e571ea0cf2",
	"lif/zero/current/membrane":             "cf27eac51d5117346f023a22e11b014b829633b7ebddcafa5e418e9a3985d20e",
	"lif/zero/poisson/spike_count":          "f0f6130fbf3014424c5d1f9fa77cbcc99a3258b481ef49c15af599a4c5368312",
	"lif/zero/poisson/membrane":             "7b459551707ee9cfc77958a43c5c4aafbd87cf650f44644f5e69f8cf6a9bf8cf",
	"lif/zero/latency/spike_count":          "bb6505b914ea931dbaea805ae9724a58bc433d082921d76b8a2f7b40dfa2059d",
	"lif/zero/latency/membrane":             "01e7dcc7c05b0ad8fbfac7e8f6048916ab1ea6c7ee02c965774122f60c93b46a",
	"lif/zero/spike_train/spike_count":      "3ea992546d82a7d35e0dab23e991dd087351043450d89adb2e23bc9f991d22f8",
	"lif/zero/spike_train/membrane":         "2f2333df422e468cd9e40efb30895161b6fe7ae9d45aa1217b2ae8cf346bb28e",
	"lif/subtract/current/spike_count":      "60143283806372c43724525869b95a43769ec5098bbd248ce12e03bf292be98e",
	"lif/subtract/current/membrane":         "98e4ff85af4b034f644029949595a50ceec0cca347429390bd76cd1d8f8a2933",
	"lif/subtract/poisson/spike_count":      "6e10adeff9414028211b88d32a455969f23e97b2189fa91ba1b4b7aed9981527",
	"lif/subtract/poisson/membrane":         "63e4a7a9b8889e79d99556e59a5a7f70bd75f63069b4632b8e94d7d1032e5af7",
	"lif/subtract/latency/spike_count":      "53e16ceb0dab0529bb22d057f7826b98ed2624844cef444291d49f9eba74f4d2",
	"lif/subtract/latency/membrane":         "82d390a7edd83316b8be9ed3f4be9b3f5f842122777712b624c530fcb619d6b0",
	"lif/subtract/spike_train/spike_count":  "f5d193e0c6899ab9d8446795c8ffc7b3ee89d659832c0f84e54294894c467a2a",
	"lif/subtract/spike_train/membrane":     "71ad9f5caa613951b24e745542d7cd5cbfaf00ec1408c3382fcf6de3600cc2df",
	"alif/zero/current/spike_count":         "cbb430bb3eb69101a647e73cdd3e211aebf63f2a72e76ceeb189533ccb3a16a4",
	"alif/zero/current/membrane":            "1517944def3de30f8ea7252b13e73ba8fffa4b91638f05d59ead7518daeaae10",
	"alif/zero/poisson/spike_count":         "c69452aac0c94e9734a9ac8a3d1b7c8851718b65f8f99ed76900db71742c00d0",
	"alif/zero/poisson/membrane":            "c85b3c7d60a9d7d290ca60855b138e96297257747e69de4cbab60a22f9df92d8",
	"alif/zero/latency/spike_count":         "56823f2a51745abdfb08d0e1b8bc51e1b29b35a6abc5c3d5bfe41bb5f18935b8",
	"alif/zero/latency/membrane":            "c638feddeee2171ebd84ff015a9ccb804ed74abc4d9ef4b27c111646a2fc3e96",
	"alif/zero/spike_train/spike_count":     "b29085e95e09d5b1cb34075cf29a7a4fdc6d6eb68481f033d08cb7a9da467c18",
	"alif/zero/spike_train/membrane":        "d6366860fe0c28d174899bb66ab3378f0632b6ef75f30304fabb7dbddf0fb065",
	"alif/subtract/current/spike_count":     "d46b9dc8397644b3c52b3446c09e706a23273d10b7fe86b25c69290f695e300c",
	"alif/subtract/current/membrane":        "8540aabc7ef6308f8b0f461220addd573e8a6cbb2c485af9064fa4173b465626",
	"alif/subtract/poisson/spike_count":     "2386243f99eebbb5189224312537000804555aeb2070d1ca941a93bc92e0786a",
	"alif/subtract/poisson/membrane":        "5dd4d75574e32659123c9fb469c871e055c3091a4045f153273af21f277e0e2d",
	"alif/subtract/latency/spike_count":     "ad1ad30cd3495ba3b1e76844fae87b9d820f25867cceedad7b48e64a4e7b13a8",
	"alif/subtract/latency/membrane":        "2267b198aeedb92746b5894637371373d75041b352f223f46871a49b7a2d55f4",
	"alif/subtract/spike_train/spike_count": "93e16bb840086ee931f9a99729e4a6125517aa577652c12afb031510ff02e025",
	"alif/subtract/spike_train/membrane":    "ab1e61623b3a4fec6f7a268e4a7c4be88e066e4cb1a7b499d224c3aa7b793d5f",
}

// goldenEncoders builds the four input encodings on a T-step window;
// the spike train replays seeded random planes of the input's shape.
func goldenEncoders(T int, shape []int) map[string]Encoder {
	r := tensor.NewRand(91, 0)
	planes := make([]*tensor.SpikeTensor, T)
	for t := range planes {
		d := tensor.New(shape...)
		for i := range d.Data() {
			if r.Float64() < 0.3 {
				d.Data()[i] = 1
			}
		}
		planes[t] = tensor.PackSpikes(d)
	}
	return map[string]Encoder{
		"current":     ConstantCurrentEncoder{Gain: 2},
		"poisson":     NewNormalizedPoissonEncoder(1.5, 0.1307, 0.3081, 5, 6),
		"latency":     LatencyEncoder{Gain: 1, T: T},
		"spike_train": &SpikeTrainEncoder{Planes: planes},
	}
}

// goldenNetwork is a conv → pool → linear spiking stack. The three
// populations use three surrogates, so both the devirtualised
// fast-sigmoid branch and the interface branch are pinned.
func goldenNetwork(enc Encoder, adapt bool, reset ResetMode, mode ReadoutMode, T int) *Network {
	r := tensor.NewRand(92, 0)
	cfg := func(s Surrogate) NeuronConfig {
		return NeuronConfig{Vth: 0.5, Alpha: 0.9, Reset: reset, Surrogate: s}
	}
	hidden := []Layer{
		{Syn: nn.NewConv2D(r, 1, 2, 3, 1, 1), Cfg: cfg(FastSigmoid{Beta: 5})},
		{Syn: nn.NewSequential(nn.AvgPool{K: 2}, nn.Flatten{}, nn.NewLinear(r, 2*4*4, 10)), Cfg: cfg(SigmoidPrime{Beta: 4})},
	}
	if adapt {
		for i := range hidden {
			hidden[i].Adapt = &Adaptation{Step: 0.2, Decay: 0.8}
		}
	}
	return &Network{
		Encoder:    enc,
		Hidden:     hidden,
		Readout:    nn.NewLinear(r, 10, 4),
		ReadoutCfg: cfg(PiecewiseLinear{Width: 0.6}),
		Mode:       mode,
		T:          T,
		LogitScale: 10,
	}
}

func digestFloats(h interface{ Write([]byte) (int, error) }, ts ...*tensor.Tensor) {
	var b [8]byte
	for _, t := range ts {
		for _, v := range t.Data() {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
}

// TestForwardBackwardGolden pins LIF/ALIF × reset mode × encoder ×
// readout to absolute bits. The digests hold on amd64; other
// architectures may fuse multiply-adds and are skipped.
func TestForwardBackwardGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden bits are pinned on amd64, not %s", runtime.GOARCH)
	}
	const T = 5
	shape := []int{3, 1, 8, 8}
	r := tensor.NewRand(90, 0)
	xT := tensor.RandN(r, 0.3, 0.5, shape...)
	labels := []int{0, 3, 1}
	for _, adapt := range []bool{false, true} {
		for _, reset := range []ResetMode{ResetZero, ResetSubtract} {
			for _, encName := range []string{"current", "poisson", "latency", "spike_train"} {
				for _, mode := range []ReadoutMode{ReadoutSpikeCount, ReadoutMembrane} {
					neuron := "lif"
					if adapt {
						neuron = "alif"
					}
					name := fmt.Sprintf("%s/%s/%s/%s", neuron, reset, encName, mode)
					t.Run(name, func(t *testing.T) {
						net := goldenNetwork(goldenEncoders(T, shape)[encName], adapt, reset, mode, T)
						tp := autodiff.NewTape()
						x := tp.Var(xT.Clone())
						logits := net.Logits(tp, x)
						tp.Backward(tp.SoftmaxCrossEntropy(logits, labels))
						h := sha256.New()
						digestFloats(h, logits.Data, x.Grad)
						for _, p := range net.Params() {
							digestFloats(h, p.Grad)
						}
						tp.Release()
						got := hex.EncodeToString(h.Sum(nil))
						if want := goldenDigests[name]; got != want {
							t.Errorf("digest %s, want %s", got, want)
						}
					})
				}
			}
		}
	}
}
