package main

import (
	"bytes"
	"encoding/binary"
	"math"
	"time"

	"milr"
	"milr/internal/crc2d"
	"milr/internal/nn"
	"milr/internal/prng"
)

// Stream tags: each schedule draws from its own stream of the workload
// seed, so changing one schedule's length never shifts another's draws.
const (
	tagArrivals uint64 = 0xa1
	tagFaults   uint64 = 0xf1
	tagInputs   uint64 = 0x1b
	tagPayloads uint64 = 0xba
)

// stream returns the seeded stream for one tag of the workload seed.
func stream(seed, tag uint64) *prng.Stream {
	return prng.New(seed*0x9e3779b97f4a7c15 ^ tag)
}

// arrival is one scheduled open-loop request: when it is due, relative
// to the phase start, and which pool input it sends.
type arrival struct {
	due   time.Duration
	input int
}

// arrivals draws a Poisson arrival schedule at rate per second: the
// rate·span requests expected over span, with exponential gaps, each
// picking a pool input. The count is fixed so per-request ratios do not
// move with the draw; the last request falls near span.
func arrivals(seed uint64, rate float64, span time.Duration, pool int) []arrival {
	st := stream(seed, tagArrivals)
	out := make([]arrival, int(math.Round(rate*span.Seconds())))
	t := 0.0
	for i := range out {
		t += -math.Log(1-st.Float64()) / rate
		out[i] = arrival{due: time.Duration(t * float64(time.Second)), input: st.Intn(pool)}
	}
	return out
}

// eventKind is what one heal-campaign event does before its scrub.
type eventKind int

const (
	// blockEvent garbles one 16-byte AES-XTS block: 4 adjacent float32
	// weights of one parameterized layer.
	blockEvent eventKind = iota
	// layerEvent overwrites every weight of the dense layer.
	layerEvent
	// cleanEvent scrubs an uncorrupted model.
	cleanEvent
)

// String names the kind as the metrics do.
func (k eventKind) String() string {
	return [...]string{"block", "layer", "clean"}[k]
}

// event is one scheduled heal-campaign step.
type event struct {
	kind eventKind
	// layer is the model layer index a fault hits.
	layer int
	// block is the 4-weight block index a block event garbles.
	block int
	// vals are the garbled values of a block event.
	vals [4]float32
	// fill seeds the overwrite values of a layer event.
	fill uint64
}

// faultSchedule draws the heal campaign for model m: block events walk
// round-robin over the parameterized layers and clean scrubs fall among
// them in a seeded order, while the layer events, which overwrite the
// dense layer and each hold the engine gate for the longest, sit at
// evenly spaced slots from a seeded offset so no two run back to back.
func faultSchedule(seed uint64, m *milr.Model, blocks, layers, cleans int) []event {
	st := stream(seed, tagFaults)
	params := m.ParamLayers()
	dense := layerIndex(m, "dense")
	weights := m.Snapshot()
	kinds := make([]eventKind, 0, blocks+cleans)
	for i := 0; i < blocks; i++ {
		kinds = append(kinds, blockEvent)
	}
	for i := 0; i < cleans; i++ {
		kinds = append(kinds, cleanEvent)
	}
	order := st.Perm(len(kinds))
	total := blocks + layers + cleans
	stride := total / max(layers, 1)
	offset := st.Intn(max(stride, 1))
	out := make([]event, 0, total)
	nb := 0
	for i := 0; i < total; i++ {
		var ev event
		if layers > 0 && i%stride == offset && i/stride < layers {
			ev = event{kind: layerEvent, layer: dense, fill: st.Uint64()}
		} else {
			ev = event{kind: kinds[order[0]]}
			order = order[1:]
		}
		if ev.kind == blockEvent {
			ev.layer = params[nb%len(params)]
			nb++
			l := m.Layer(ev.layer)
			size := l.(milr.Parameterized).ParamCount()
			for {
				ev.block = st.Intn(size / 4)
				for k := range ev.vals {
					ev.vals[k] = garble(st)
				}
				if conv, ok := l.(*nn.Conv2D); !ok || crcLocates(conv, weights[ev.layer].Data(), ev.block, ev.vals) {
					break
				}
			}
		}
		out = append(out, ev)
	}
	return out
}

// crcLocates reports whether the conv layer's 2-D CRC codes, encoded
// over its weights w, locate exactly the four weights of the given
// block once it holds vals. A conv layer's weights are F² (Z, Y)
// matrices with the filter index innermost, so a block is four
// adjacent filters of one tap: one row CRC-8 and four column CRC-8s
// cover it. A garble that one of them misses (about 5 in 256 draws)
// leaves MILR's partial-recoverability mode nothing to solve for in
// that filter but a least-squares guess, so the schedule draws again:
// every block event is a fault the engine promises to recover exactly.
func crcLocates(c *nn.Conv2D, w []float32, block int, vals [4]float32) bool {
	z, y := c.InChannels(), c.Filters()
	n := z * y
	pos, off := 4*block/n, 4*block%n
	clean := w[pos*n : (pos+1)*n]
	code, err := crc2d.Encode(clean, z, y, crc2d.DefaultGroup)
	if err != nil {
		return false
	}
	garbled := append([]float32(nil), clean...)
	copy(garbled[off:], vals[:])
	cells, err := code.Locate(garbled)
	if err != nil || len(cells) != len(vals) {
		return false
	}
	for k, cell := range cells {
		if cell != (crc2d.Cell{Row: off / y, Col: off%y + k}) {
			return false
		}
	}
	return true
}

// garble draws one garbled weight: a random sign and mantissa with a
// magnitude between 1/16 and 2^21. Decrypting a corrupted AES block
// yields uniformly random bits; this keeps the part of that range MILR's
// detection tolerance can see and leaves out NaN and Inf, so every
// block event is a fault MILR is required to detect and heal.
func garble(st *prng.Stream) float32 {
	v := math.Ldexp(1+st.Float64(), st.Intn(24)-4)
	if st.Intn(2) == 1 {
		v = -v
	}
	return float32(v)
}

// layerIndex returns the index of the layer named name, or -1.
func layerIndex(m *milr.Model, name string) int {
	for i, l := range m.Layers() {
		if l.Name() == name {
			return i
		}
	}
	return -1
}

// encodeSchedules serializes both schedules, the form the determinism
// self-test compares byte for byte.
func encodeSchedules(arr []arrival, evs []event) []byte {
	var b bytes.Buffer
	w := func(v any) { _ = binary.Write(&b, binary.LittleEndian, v) }
	for _, a := range arr {
		w(int64(a.due))
		w(int64(a.input))
	}
	for _, ev := range evs {
		w(int64(ev.kind))
		w(int64(ev.layer))
		w(int64(ev.block))
		w(ev.vals)
		w(ev.fill)
	}
	return b.Bytes()
}
