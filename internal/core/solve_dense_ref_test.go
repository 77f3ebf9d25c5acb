package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"testing"

	"milr/internal/nn"
	"milr/internal/prng"
	"milr/internal/tensor"
)

// Reference dense solve: the row generator, per-column back
// substitution, keep-tolerance test and protect-time dummy outputs the
// shared-band solve in solve_dense.go replaced. The new code must
// reproduce the reference solutions, the healed weights and the dummy
// outputs bit for bit.

func refDenseDummyRow(seed, tag uint64, i, n, band int) ([]int, []float64) {
	stream := prng.New(seed ^ mixTag(tag) ^ mixTag(uint64(i)+0x5bd1e995))
	width := band
	if i+width > n {
		width = n - i
	}
	cols := make([]int, width)
	vals := make([]float64, width)
	cols[0] = i
	var offMass float64
	for k := 1; k < width; k++ {
		cols[k] = i + k
		vals[k] = 2*stream.Float64() - 1
		offMass += vals[k] * vals[k]
	}
	d := 1 + stream.Float64() + math.Sqrt(offMass)
	if stream.Uint64()&1 == 0 {
		d = -d
	}
	vals[0] = d
	return cols, vals
}

func refDenseDummyOutputs(d *nn.Dense, seed, tag uint64, band int) *tensor.Tensor {
	n, p := d.In(), d.Out()
	w := d.Params().Data()
	out := tensor.New(n, p)
	od := out.Data()
	acc := make([]float64, p)
	for i := 0; i < n; i++ {
		cols, vals := refDenseDummyRow(seed, tag, i, n, band)
		for j := range acc {
			acc[j] = 0
		}
		for k, c := range cols {
			v := vals[k]
			row := w[c*p : (c+1)*p]
			for j := 0; j < p; j++ {
				acc[j] += v * float64(row[j])
			}
		}
		for j := 0; j < p; j++ {
			od[i*p+j] = float32(acc[j])
		}
	}
	return out
}

// refDenseColumnSolution back-substitutes column j alone against the
// reference rows (refDenseRows).
func refDenseColumnSolution(lp *layerPlan, rows []refDenseRow, j int) []float64 {
	n, p := lp.dense.In(), lp.dense.Out()
	cd := lp.denseDummyOut.Data()
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		rcols, rvals := rows[i].cols, rows[i].vals
		acc := float64(cd[i*p+j])
		for k := 1; k < len(rcols); k++ {
			acc -= rvals[k] * x[rcols[k]]
		}
		x[i] = acc / rvals[0]
	}
	return x
}

func refRelMismatch(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return true
	}
	d := a - b
	if d < 0 {
		d = -d
	}
	mag := b
	if mag < 0 {
		mag = -mag
	}
	return d > tol*(1+mag)
}

type refDenseRow struct {
	cols []int
	vals []float64
}

// refDenseRows regenerates every row of the dummy input once; the
// per-column solves share them, which changes no arithmetic.
func refDenseRows(lp *layerPlan, opts Options) []refDenseRow {
	n := lp.dense.In()
	rows := make([]refDenseRow, n)
	for i := range rows {
		rows[i].cols, rows[i].vals = refDenseDummyRow(opts.Seed, lp.denseTag, i, n, opts.DenseBand)
	}
	return rows
}

// float32Bits renders a weight slice as bytes so comparisons are bit
// exact, NaN payloads included.
func float32Bits(v []float32) []byte {
	b := make([]byte, 4*len(v))
	for i, f := range v {
		binary.LittleEndian.PutUint32(b[4*i:], math.Float32bits(f))
	}
	return b
}

// refDenseLayer builds an n×p dense layer with seeded weights and its
// reference dummy outputs.
func refDenseLayer(t *testing.T, n, p int, opts Options) *layerPlan {
	t.Helper()
	d, err := nn.NewDense(n, p)
	if err != nil {
		t.Fatal(err)
	}
	st := prng.New(uint64(n*7919 + p))
	w := d.Params().Data()
	for i := range w {
		w[i] = st.Uniform(-0.1, 0.1)
	}
	lp := &layerPlan{role: roleDense, dense: d, denseTag: tagDenseDummy + 5}
	lp.denseDummyOut = refDenseDummyOutputs(d, opts.Seed, lp.denseTag, opts.DenseBand)
	return lp
}

// garbleDense corrupts a quarter of the entries in every other column
// with overwrites, Inf, NaN and sign flips, leaving the rest of the
// layer intact so the keep-tolerance write-back exercises both branches.
func garbleDense(w []float32, n, p int) {
	st := prng.New(99)
	for j := 0; j < p; j += 2 {
		for i := 0; i < n; i++ {
			if st.Uint64()%4 != 0 {
				continue
			}
			switch st.Uint64() % 8 {
			case 0:
				w[i*p+j] = float32(math.Inf(1))
			case 1:
				w[i*p+j] = float32(math.NaN())
			case 2:
				w[i*p+j] = -w[i*p+j]
			default:
				w[i*p+j] = st.Uniform(-1e3, 1e3)
			}
		}
	}
}

func TestSolveDenseColumnsMatchesReference(t *testing.T) {
	opts := DefaultOptions(17)
	for _, shape := range []struct {
		name string
		n, p int
	}{
		{"mnist-dense", 6400, 256},
		{"mnist-dense_1", 256, 10},
		{"narrow-tail", 100, 7}, // 100 mod 32 ≠ 0: the last rows are narrower than the band
	} {
		t.Run(shape.name, func(t *testing.T) {
			n, p := shape.n, shape.p
			lp := refDenseLayer(t, n, p, opts)
			got, err := denseDummyOutputs(lp.dense, opts.Seed, lp.denseTag, opts.DenseBand)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(float32Bits(got.Data()), float32Bits(lp.denseDummyOut.Data())) {
				t.Fatal("protect-time dummy outputs differ from the reference")
			}

			w := lp.dense.Params().Data()
			garbleDense(w, n, p)
			corrupt := append([]float32(nil), w...)
			all := make([]int, p)
			for j := range all {
				all[j] = j
			}
			// The reference solves each column independently, so one
			// solution per column gives every subset's expected columns.
			rows := refDenseRows(lp, opts)
			refX := make([][]float64, p)
			healed := append([]float32(nil), corrupt...)
			for j := range refX {
				refX[j] = refDenseColumnSolution(lp, rows, j)
				for i, v := range refX[j] {
					if refRelMismatch(v, float64(healed[i*p+j]), opts.KeepTol) {
						healed[i*p+j] = float32(v)
					}
				}
			}

			sets := map[string][]int{
				"one":      {p - 1},
				"three":    {0, 1, 2},
				"four":     {0, 2, 4, 6},
				"five":     {0, 1, 2, 3, 4},
				"eight":    {1, 2, 3, 4, 5, 6, 7, 8},
				"nine":     {0, 1, 2, 3, 4, 5, 6, 7, 8},
				"unsorted": {p - 1, 0, p / 2, 2, 1},
				"all":      all,
			}
			for _, workers := range equivWorkerCounts() {
				for name, cols := range sets {
					if slices.Max(cols) >= p {
						continue
					}
					// The float64 solutions first: the float32 write-back
					// and keep tolerance would mask a last-bit drift.
					x := denseSolutions(lp, cols, opts.Seed, opts.DenseBand, workers)
					for c, j := range cols {
						for i := 0; i < n; i++ {
							if got := x[i*len(cols)+c]; math.Float64bits(got) != math.Float64bits(refX[j][i]) {
								t.Fatalf("workers=%d cols=%s: column %d row %d solves to %v, reference %v",
									workers, name, j, i, got, refX[j][i])
							}
						}
					}
					want := append([]float32(nil), corrupt...)
					for _, j := range cols {
						for i := 0; i < n; i++ {
							want[i*p+j] = healed[i*p+j]
						}
					}
					copy(w, corrupt)
					o := opts
					o.Workers = workers
					if err := solveDenseColumns(lp, cols, o); err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(float32Bits(w), float32Bits(want)) {
						t.Errorf("workers=%d cols=%s: weights differ from the reference solve", workers, name)
					}
				}
			}
		})
	}
}

// A report naming an out-of-range dense column must fail before any
// weight is written: the in-range columns stay exactly as they were.
func TestRecoverRejectsOutOfRangeDenseColumnUntouched(t *testing.T) {
	for _, workers := range equivWorkerCounts() {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			m, err := nn.NewTinyNet()
			if err != nil {
				t.Fatal(err)
			}
			m.InitWeights(5)
			opts := DefaultOptions(5)
			opts.Workers = workers
			pr, err := NewProtector(m, opts)
			if err != nil {
				t.Fatal(err)
			}
			var lp *layerPlan
			for _, l := range pr.plan.layers {
				if l.role == roleDense {
					lp = l
					break
				}
			}
			if lp == nil {
				t.Fatal("tiny net has no dense layer")
			}
			n, p := lp.dense.In(), lp.dense.Out()
			w := lp.dense.Params().Data()
			for i := 0; i < n; i++ {
				w[i*p] = 7 // column 0 is corrupt: a solve would rewrite it
			}
			before := float32Bits(w)
			rec, err := pr.Recover(&DetectionReport{Findings: []LayerFinding{{
				Layer:   lp.idx,
				Name:    m.Layer(lp.idx).Name(),
				Columns: []int{0, 1, p},
			}}})
			if err != nil {
				t.Fatal(err)
			}
			if len(rec.Results) != 1 || rec.Results[0].Status != Failed {
				t.Fatalf("results = %+v, want one Failed result", rec.Results)
			}
			if !bytes.Equal(float32Bits(w), before) {
				t.Fatal("dense weights changed although the column list was invalid")
			}
		})
	}
}
