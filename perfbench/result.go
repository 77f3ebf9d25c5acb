package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metric is one named measurement as printed.
type metric struct {
	name, unit string
	value      float64
}

// result is one run's outcome: the checks, the metrics, and the sample
// counts and notes printed above the final JSON line.
type result struct {
	attempted, failed int
	metrics           []metric
	notes             []string
	// firstErr is the first failed operation, for the notes.
	firstErr error
}

// add records a metric.
func (res *result) add(name, unit string, v float64) {
	res.metrics = append(res.metrics, metric{name: name, unit: unit, value: v})
}

// note records a line printed above the result.
func (res *result) note(format string, args ...any) {
	res.notes = append(res.notes, fmt.Sprintf(format, args...))
}

// count adds n attempted operations of which failed failed.
func (res *result) count(n, failed int, err error) {
	res.attempted += n
	res.failed += failed
	if err != nil && res.firstErr == nil {
		res.firstErr = err
	}
}

// correct reports whether every operation succeeded.
func (res *result) correct() bool { return res.failed == 0 }

// unmeasured returns an error naming the first metric the run could not
// measure (NaN), or nil.
func (res *result) unmeasured() error {
	for _, m := range res.metrics {
		if math.IsNaN(m.value) {
			return fmt.Errorf("metric %s was not measured", m.name)
		}
	}
	return nil
}

// print writes the notes, one line per metric, and the final JSON line.
// +Inf (a failed request inside a percentile) is printed as the largest
// float64, which JSON can carry.
func (res *result) print(w io.Writer) {
	for _, n := range res.notes {
		fmt.Fprintln(w, n)
	}
	if res.firstErr != nil {
		fmt.Fprintf(w, "first failure: %v\n", res.firstErr)
	}
	fmt.Fprintf(w, "failed_frac: %d / %d = %g\n", res.failed, res.attempted, float64(res.failed)/float64(max(res.attempted, 1)))
	var b strings.Builder
	fmt.Fprintf(&b, `{"correct": %t, "attempted": %d, "failed": %d, "metrics": {`, res.correct(), res.attempted, res.failed)
	for i, m := range res.metrics {
		v := m.value
		if math.IsInf(v, 1) {
			v = math.MaxFloat64
		}
		fmt.Fprintf(w, "%-40s %14.6g %s\n", m.name, v, m.unit)
		if i > 0 {
			b.WriteString(", ")
		}
		name, _ := json.Marshal(m.name)
		unit, _ := json.Marshal(m.unit)
		fmt.Fprintf(&b, `%s: {"value": %s, "unit": %s}`, name, strconv.FormatFloat(v, 'g', -1, 64), unit)
	}
	b.WriteString("}}")
	fmt.Fprintln(w, b.String())
}

// quantile returns the q-quantile of xs, interpolating linearly between
// order statistics; NaN for an empty sample. +Inf entries sort last.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo, hi := int(math.Floor(pos)), int(math.Ceil(pos))
	if math.IsInf(s[hi], 1) {
		return s[hi]
	}
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// ms converts durations to milliseconds; math.MaxInt64 (a failed
// request) becomes +Inf.
func ms(ds ...time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		if d == time.Duration(math.MaxInt64) {
			out[i] = math.Inf(1)
			continue
		}
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}
