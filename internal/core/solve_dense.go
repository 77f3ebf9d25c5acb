package core

import (
	"fmt"
	"math"

	"milr/internal/linalg"
	"milr/internal/nn"
	"milr/internal/par"
	"milr/internal/prng"
	"milr/internal/tensor"
)

// Dense-layer algebra (paper §IV-A): A(M,N)·B(N,P) = C(M,P).
//
// Parameter solving requires M ≥ N rows of golden input. Inference
// supplies M = 1, so MILR pads with pseudo-random dummy input rows whose
// outputs are computed once at initialization and stored — the dominant
// storage cost in the paper's Tables V/VII/IX.
//
// Deviation from the paper (see ARCHITECTURE.md, deviations): the paper's dummy
// input is unstructured random and the authors solved the resulting
// N-unknown systems with GPU lstsq. We draw the dummy input as a banded
// upper-triangular pseudo-random matrix: the storage cost is identical
// (the stored artifact is the dummy *output* matrix, N×P either way;
// the dummy input itself is regenerated from the seed), every column
// remains exactly solvable, and back substitution costs O(N·band) per
// column. A recovery regenerates the band once and shares it across
// every flagged column; the columns solve on the engine's worker pool.

// denseBand is the banded upper-triangular dummy input A_dummy (N×N),
// regenerated from the seed. Row i covers columns i .. i+width(i)-1,
// width(i) = min(band, n-i), and its values sit at vals[i*band:] with
// the diagonal first.
type denseBand struct {
	n, band int
	vals    []float64
}

// newDenseBand regenerates the dummy input for the dense layer keyed by
// (seed, tag). Every row draws from its own seeded stream, so rows fill
// independently on the worker pool with identical results.
func newDenseBand(seed, tag uint64, n, band, workers int) denseBand {
	a := denseBand{n: n, band: band, vals: make([]float64, n*band)}
	par.Blocks(n, workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			fillDenseRow(a.row(i), seed, tag, i)
		}
	})
	return a
}

// row returns row i's band values, diagonal first.
func (a denseBand) row(i int) []float64 {
	w := a.band
	if i+w > a.n {
		w = a.n - i
	}
	return a.vals[i*a.band : i*a.band+w]
}

// fillDenseRow regenerates row i of the dummy input into vals. The
// diagonal entry is made strictly dominant over the row's off-diagonal
// mass: a random *non-dominant* triangular matrix has exponentially
// growing condition number, and the back-substitution would amplify the
// float32 rounding of the stored dummy outputs into garbage within a few
// dozen steps. With row dominance the error amplification factor per
// step is < 1 and the solve is backward stable.
func fillDenseRow(vals []float64, seed, tag uint64, i int) {
	stream := prng.New(seed ^ mixTag(tag) ^ mixTag(uint64(i)+0x5bd1e995))
	var offMass float64
	for k := 1; k < len(vals); k++ {
		vals[k] = 2*stream.Float64() - 1
		offMass += vals[k] * vals[k]
	}
	// Dominance with headroom: |d| ≥ 1 + √Σa² + random slack.
	d := 1 + stream.Float64() + math.Sqrt(offMass)
	if stream.Uint64()&1 == 0 {
		d = -d
	}
	vals[0] = d
}

func mixTag(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// denseDummyOutputs computes C_dummy = A_dummy·B at initialization time,
// with the current (golden) parameters. The result is the stored dummy
// output matrix (N rows × P columns).
func denseDummyOutputs(d *nn.Dense, seed, tag uint64, band int) (*tensor.Tensor, error) {
	n, p := d.In(), d.Out()
	a := newDenseBand(seed, tag, n, band, 1)
	w := d.Params().Data() // row-major (N,P)
	out := tensor.New(n, p)
	od := out.Data()
	acc := make([]float64, p)
	for i := 0; i < n; i++ {
		clear(acc)
		for k, v := range a.row(i) {
			row := w[(i+k)*p : (i+k+1)*p]
			for j := range acc {
				acc[j] += v * float64(row[j])
			}
		}
		for j, s := range acc {
			od[i*p+j] = float32(s)
		}
	}
	return out, nil
}

// solveChunk is how many columns one worker-pool task back-substitutes.
// A multiple of 8 keeps concurrent tasks' float64 solution rows on
// separate cache lines whenever the column count is a multiple of 8.
const solveChunk = 16

// solveDenseColumns re-solves the given parameter columns of the dense
// layer from the stored dummy outputs: for column j, the banded
// upper-triangular system A_dummy·x = C_dummy[:,j] is solved by back
// substitution. Entries within KeepTol of the stored value keep the
// stored bits to avoid float churn in correct weights.
//
// The whole column list is validated before any weight is written, so
// a bad list leaves the layer untouched. Columns are independent
// systems: they solve concurrently on the engine's worker pool against
// one shared band, then the write-back walks the weight matrix by rows.
// Each element keeps the serial per-column arithmetic — subtractions in
// ascending k from the diagonal, then one division — so the result is
// bit-identical at every worker count.
func solveDenseColumns(lp *layerPlan, cols []int, opts Options) error {
	d := lp.dense
	n, p := d.In(), d.Out()
	for _, j := range cols {
		if j < 0 || j >= p {
			return fmt.Errorf("core: dense column %d out of range [0,%d)", j, p)
		}
	}
	workers := opts.workerPool()
	x := denseSolutions(lp, cols, opts.Seed, opts.DenseBand, workers)
	w := d.Params().Data()
	m := len(cols)
	par.Blocks(n, workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			wr := w[i*p : (i+1)*p]
			for c, v := range x[i*m : (i+1)*m] {
				j := cols[c]
				if relMismatch(v, float64(wr[j]), opts.KeepTol) {
					wr[j] = float32(v)
				}
			}
		}
	})
	return nil
}

// denseSolutions back-substitutes every column in cols against one
// regenerated band and returns the solutions row-major, n×len(cols):
// x[i*len(cols)+c] is row i of column cols[c].
func denseSolutions(lp *layerPlan, cols []int, seed uint64, band, workers int) []float64 {
	n, p := lp.dense.In(), lp.dense.Out()
	a := newDenseBand(seed, lp.denseTag, n, band, workers)
	cd := lp.denseDummyOut.Data()
	x := make([]float64, n*len(cols))
	chunks := (len(cols) + solveChunk - 1) / solveChunk
	par.For(chunks, workers, func(ci int) {
		lo := ci * solveChunk
		backSubstitute(a, cd, p, cols, lo, min(lo+solveChunk, len(cols)), x)
	})
	return x
}

// backSubstitute solves the columns cols[lo:hi] into x. Eight columns
// advance together per row so their dependent subtraction chains
// interleave; a tail of fewer than eight solves column by column.
func backSubstitute(a denseBand, cd []float32, p int, cols []int, lo, hi int, x []float64) {
	m := len(cols)
	c := lo
	for ; c+8 <= hi; c += 8 {
		j0, j1, j2, j3, j4, j5, j6, j7 := cols[c], cols[c+1], cols[c+2], cols[c+3], cols[c+4], cols[c+5], cols[c+6], cols[c+7]
		for i := a.n - 1; i >= 0; i-- {
			row := a.row(i)
			cr := cd[i*p : (i+1)*p]
			acc0, acc1, acc2, acc3 := float64(cr[j0]), float64(cr[j1]), float64(cr[j2]), float64(cr[j3])
			acc4, acc5, acc6, acc7 := float64(cr[j4]), float64(cr[j5]), float64(cr[j6]), float64(cr[j7])
			for k := 1; k < len(row); k++ {
				v := row[k]
				o := (i+k)*m + c
				q := x[o : o+8 : o+8]
				acc0 -= v * q[0]
				acc1 -= v * q[1]
				acc2 -= v * q[2]
				acc3 -= v * q[3]
				acc4 -= v * q[4]
				acc5 -= v * q[5]
				acc6 -= v * q[6]
				acc7 -= v * q[7]
			}
			d := row[0]
			q := x[i*m+c : i*m+c+8 : i*m+c+8]
			q[0], q[1], q[2], q[3] = acc0/d, acc1/d, acc2/d, acc3/d
			q[4], q[5], q[6], q[7] = acc4/d, acc5/d, acc6/d, acc7/d
		}
	}
	for ; c < hi; c++ {
		j := cols[c]
		for i := a.n - 1; i >= 0; i-- {
			row := a.row(i)
			acc := float64(cd[i*p+j])
			for k := 1; k < len(row); k++ {
				acc -= row[k] * x[(i+k)*m+c]
			}
			x[i*m+c] = acc / row[0]
		}
	}
}

// invertDense computes the input A from output C when P ≥ N: each row of
// A solves Bᵀ·aᵀ = cᵀ, an overdetermined least-squares problem sharing
// one factorization across rows (paper §IV-A-a). Dense layers with
// P < N receive an input checkpoint from the planner instead, so this
// path only runs when the shapes permit it.
func invertDense(d *nn.Dense, out *tensor.Tensor) (*tensor.Tensor, error) {
	n, p := d.In(), d.Out()
	if p < n {
		return nil, fmt.Errorf("core: dense %q with P=%d < N=%d is not invertible without a checkpoint", d.Name(), p, n)
	}
	shape := out.Shape()
	if len(shape) != 2 || shape[1] != p {
		return nil, fmt.Errorf("core: dense %q invert got output shape %v, want (M,%d)", d.Name(), shape, p)
	}
	m := shape[0]
	// Build Bᵀ (P×N) in float64.
	bt := linalg.NewMatrix(p, n)
	w := d.Params().Data()
	for i := 0; i < n; i++ {
		for j := 0; j < p; j++ {
			bt.Set(j, i, float64(w[i*p+j]))
		}
	}
	qr, err := linalg.FactorQR(bt)
	if err != nil {
		return nil, fmt.Errorf("core: dense %q invert: %w", d.Name(), err)
	}
	in := tensor.New(m, n)
	id := in.Data()
	od := out.Data()
	rhs := make([]float64, p)
	for r := 0; r < m; r++ {
		for j := 0; j < p; j++ {
			rhs[j] = float64(od[r*p+j])
		}
		x, err := qr.Solve(rhs)
		if err != nil {
			return nil, fmt.Errorf("core: dense %q invert row %d: %w", d.Name(), r, err)
		}
		for i := 0; i < n; i++ {
			id[r*n+i] = float32(x[i])
		}
	}
	return in, nil
}
