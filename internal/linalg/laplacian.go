package linalg

import (
	"fmt"
	"math"

	"distlap/internal/graph"
	"distlap/internal/seedderive"
)

// Laplacian is the operator view of a weighted graph's Laplacian
// L = D − A. It never materializes the matrix; MatVec streams over the
// graph's flat CSR edge arrays (built once in NewLaplacian), in EdgeID
// order — the same order the historical per-call edge-copy walked — so
// results are bit-identical while the steady-state kernels allocate
// nothing beyond their output vector.
type Laplacian struct {
	G   *graph.Graph
	csr *graph.CSR
}

// NewLaplacian wraps g, flattening it to CSR form once (Θ(n + m)).
func NewLaplacian(g *graph.Graph) *Laplacian {
	return &Laplacian{G: g, csr: graph.BuildCSR(g)}
}

// CSR exposes the cached flat view (read-only; shared).
func (l *Laplacian) CSR() *graph.CSR { return l.csr }

// N returns the dimension.
func (l *Laplacian) N() int { return l.G.N() }

// MatVec computes y = L x into a fresh vector. Θ(n + m), edge order.
func (l *Laplacian) MatVec(x []float64) ([]float64, error) {
	y := make([]float64, len(x))
	if err := l.MatVecInto(y, x); err != nil {
		return nil, err
	}
	return y, nil
}

// MatVecInto computes y = L x into the caller's buffer (zeroed here), the
// allocation-free kernel iterative loops use. y must have length n; it is
// accumulated in EdgeID order, so the float64 result is bit-identical to
// MatVec's. Θ(n + m).
func (l *Laplacian) MatVecInto(y, x []float64) error {
	if len(x) != l.G.N() {
		return fmt.Errorf("%w: x has %d entries for n=%d", ErrDimension, len(x), l.G.N())
	}
	if len(y) != len(x) {
		return fmt.Errorf("%w: y has %d entries for n=%d", ErrDimension, len(y), len(x))
	}
	for i := range y {
		y[i] = 0
	}
	c := l.csr
	for i := range c.EdgeW {
		u, v := c.EdgeU[i], c.EdgeV[i]
		d := c.EdgeW[i] * (x[u] - x[v])
		y[u] += d
		y[v] -= d
	}
	return nil
}

// Quadratic returns xᵀLx = Σ_e w_e (x_u − x_v)², the Laplacian energy.
// Edge-order summation; allocation-free.
func (l *Laplacian) Quadratic(x []float64) float64 {
	s := 0.0
	c := l.csr
	for i := range c.EdgeW {
		d := x[c.EdgeU[i]] - x[c.EdgeV[i]]
		s += c.EdgeW[i] * d * d
	}
	return s
}

// LNorm returns ‖x‖_L = sqrt(xᵀLx), the error norm the paper's guarantee
// uses.
func (l *Laplacian) LNorm(x []float64) float64 { return math.Sqrt(l.Quadratic(x)) }

// Degrees returns a copy of the weighted degree vector (the diagonal of
// L). The degrees were accumulated in EdgeID order at CSR build time, so
// they carry the exact bits per-call accumulation produced.
func (l *Laplacian) Degrees() []float64 {
	d := make([]float64, len(l.csr.WDeg))
	copy(d, l.csr.WDeg)
	return d
}

// Dense materializes L as a dense matrix (tests and the exact solver only).
func (l *Laplacian) Dense() [][]float64 {
	n := l.G.N()
	m := make([][]float64, n)
	for i := range m {
		m[i] = make([]float64, n)
	}
	for _, e := range l.G.Edges() {
		w := float64(e.Weight)
		m[e.U][e.U] += w
		m[e.V][e.V] += w
		m[e.U][e.V] -= w
		m[e.V][e.U] -= w
	}
	return m
}

// SolveExact solves L x = b exactly (up to floating point) by pinning the
// last node to zero and Gaussian-eliminating the reduced SPD system, then
// recentering the solution to mean zero. b must sum to ~0 (the Laplacian's
// range) and the graph must be connected.
func (l *Laplacian) SolveExact(b []float64) ([]float64, error) {
	n := l.G.N()
	if len(b) != n {
		return nil, fmt.Errorf("%w: b has %d entries for n=%d", ErrDimension, len(b), n)
	}
	if n == 0 {
		return nil, nil
	}
	if !graph.IsConnected(l.G) {
		return nil, ErrDisconnected
	}
	sum := 0.0
	scale := 0.0
	for _, v := range b {
		sum += v
		scale += math.Abs(v)
	}
	if scale > 0 && math.Abs(sum) > 1e-8*scale {
		return nil, fmt.Errorf("%w: sum=%g", ErrNotInRange, sum)
	}
	if n == 1 {
		return []float64{0}, nil
	}
	// Reduced system on nodes 0..n-2.
	a := l.Dense()
	m := n - 1
	// Augment with b.
	for i := 0; i < m; i++ {
		a[i] = append(a[i][:m:m], b[i])
	}
	a = a[:m]
	// Gaussian elimination with partial pivoting.
	for col := 0; col < m; col++ {
		piv := col
		for r := col + 1; r < m; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[piv][col]) {
				piv = r
			}
		}
		if math.Abs(a[piv][col]) < 1e-12 {
			return nil, ErrSingular
		}
		a[col], a[piv] = a[piv], a[col]
		inv := 1 / a[col][col]
		for r := 0; r < m; r++ {
			if r == col {
				continue
			}
			f := a[r][col] * inv
			if f == 0 { //distlint:allow floateq exact-zero pivot test in exact elimination
				continue
			}
			for c := col; c <= m; c++ {
				a[r][c] -= f * a[col][c]
			}
		}
	}
	x := make([]float64, n)
	for i := 0; i < m; i++ {
		x[i] = a[i][m] / a[i][i]
	}
	x[n-1] = 0
	CenterMean(x)
	return x, nil
}

// RelativeLError returns ‖x − xStar‖_L / ‖xStar‖_L, the paper's ε metric
// (both arguments are recentred first so the nullspace component is
// ignored).
func (l *Laplacian) RelativeLError(x, xStar []float64) float64 {
	xc, sc := Copy(x), Copy(xStar)
	CenterMean(xc)
	CenterMean(sc)
	denom := l.LNorm(sc)
	if denom == 0 { //distlint:allow floateq exact-zero guard before dividing by the pivot
		return l.LNorm(Sub(xc, sc))
	}
	return l.LNorm(Sub(xc, sc)) / denom
}

// RandomBVector returns a deterministic mean-zero right-hand side for
// experiments: b[i] alternates structured values then is centered.
func RandomBVector(n int, seed int64) []float64 {
	b := make([]float64, n)
	s := uint64(seedderive.Derive(seed, "bvector", 0))
	for i := range b {
		s = s*6364136223846793005 + 1442695040888963407
		b[i] = float64(int64(s>>33)%1000) / 100.0
	}
	CenterMean(b)
	return b
}

// SpectralBounds returns safe bounds on the nonzero Laplacian spectrum of a
// connected graph: hi = 2·max weighted degree (Gershgorin), lo = a crude
// algebraic-connectivity lower bound w_min·(2/(n·diamW))-ish; we use the
// standard λ₂ ≥ 4/(n·D_w) bound with D_w ≤ n·w_max... kept deliberately
// conservative: lo = 1/(n²·w_max⁻¹-free form) — callers who need tight
// bounds should estimate them; these are safe defaults for Chebyshev iteration (internal/core).
func SpectralBounds(l *Laplacian) (lo, hi float64) {
	maxDeg := 0.0
	for _, v := range l.CSR().WDeg {
		if v > maxDeg {
			maxDeg = v
		}
	}
	n := float64(l.N())
	if n < 2 {
		return 1, 1
	}
	hi = 2 * maxDeg
	// λ₂ >= 4 / (n * diam_w); diam_w <= n * max resistance-ish. Use the
	// very safe 1/n² scaling with the minimum edge weight.
	minW := math.Inf(1)
	for _, w := range l.CSR().EdgeW {
		if w < minW {
			minW = w
		}
	}
	if math.IsInf(minW, 1) {
		minW = 1
	}
	lo = 4 * minW / (n * n)
	return lo, hi
}
