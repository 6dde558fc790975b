package tensor

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// High-throughput GEMM backend for op(A)·B with B row-major as stored. The
// serial kernel is cache-blocked over k (panels of B stay resident in L2
// across the rows of A) with an unrolled AXPY inner loop; large multiplies
// additionally fan out across a persistent goroutine worker pool,
// partitioned by output rows so results are bit-identical to the serial
// kernel for any worker count. Steady-state calls allocate nothing: worker
// bookkeeping is recycled through a sync.Pool and task channels carry plain
// structs. Products against a transposed B are not here: a layer that needs
// x·Wᵀ keeps Wᵀ packed and calls MulAddPanel (panel.go), a convolution over
// overlapping rows calls MulAddNT.
//
// Backend knobs (SetWorkers, SetBlockSize, SetParallelThreshold) apply
// process-wide; cmd/ltbench exposes them as -workers and -blocksize.

var (
	// gemmWorkerCount is the configured worker count; 0 means GOMAXPROCS.
	gemmWorkerCount atomic.Int32
	// gemmBlockK is the k-panel size of the cache-blocked serial kernel.
	gemmBlockK atomic.Int32
	// gemmParallelMin is the minimum multiply-accumulate count (m·n·k)
	// before a GEMM fans out to the worker pool. The default keeps every
	// per-query inference multiply on the serial (zero-overhead) path and
	// reserves the pool for training sweeps and batched workloads.
	gemmParallelMin atomic.Int64
)

func init() {
	gemmBlockK.Store(128)
	gemmParallelMin.Store(4 << 20)
}

// SetWorkers sets the GEMM worker-pool width. n <= 0 selects GOMAXPROCS.
func SetWorkers(n int) {
	if n < 0 {
		n = 0
	}
	gemmWorkerCount.Store(int32(n))
}

// Workers returns the effective GEMM worker count.
func Workers() int {
	if w := gemmWorkerCount.Load(); w > 0 {
		return int(w)
	}
	return runtime.GOMAXPROCS(0)
}

// SetBlockSize sets the k-panel size of the cache-blocked kernel. Values
// below 8 are clamped to 8.
func SetBlockSize(n int) {
	if n < 8 {
		n = 8
	}
	gemmBlockK.Store(int32(n))
}

// BlockSize returns the current k-panel size.
func BlockSize() int { return int(gemmBlockK.Load()) }

// SetParallelThreshold sets the minimum m·n·k product before a GEMM uses
// the worker pool; smaller multiplies always run on the serial kernel.
func SetParallelThreshold(ops int64) {
	if ops < 0 {
		ops = 0
	}
	gemmParallelMin.Store(ops)
}

// ParallelThreshold returns the m·n·k product from which a GEMM fans out.
func ParallelThreshold() int64 { return gemmParallelMin.Load() }

// axpy computes y += a·x over equal-length slices, 8-way unrolled.
func axpy(a float32, x, y []float32) {
	i := 0
	for ; i+8 <= len(y); i += 8 {
		xx := x[i : i+8 : i+8]
		yy := y[i : i+8 : i+8]
		yy[0] += a * xx[0]
		yy[1] += a * xx[1]
		yy[2] += a * xx[2]
		yy[3] += a * xx[3]
		yy[4] += a * xx[4]
		yy[5] += a * xx[5]
		yy[6] += a * xx[6]
		yy[7] += a * xx[7]
	}
	for ; i < len(y); i++ {
		y[i] += a * x[i]
	}
}

// Axpy computes y += a·x in place. The slices must have equal length.
func Axpy(a float32, x, y []float32) {
	if len(x) != len(y) {
		panic(fmt.Sprintf("tensor: axpy length mismatch %d vs %d", len(x), len(y)))
	}
	if a == 0 {
		return
	}
	axpy(a, x, y)
}

// dot computes x·y with four independent accumulator chains.
func dot(x, y []float32) float32 {
	var s0, s1, s2, s3 float32
	i := 0
	for ; i+4 <= len(x); i += 4 {
		xx := x[i : i+4 : i+4]
		yy := y[i : i+4 : i+4]
		s0 += xx[0] * yy[0]
		s1 += xx[1] * yy[1]
		s2 += xx[2] * yy[2]
		s3 += xx[3] * yy[3]
	}
	for ; i < len(x); i++ {
		s0 += x[i] * y[i]
	}
	return (s0 + s1) + (s2 + s3)
}

// Dot returns the inner product of two equal-length slices.
func Dot(x, y []float32) float32 {
	if len(x) != len(y) {
		panic(fmt.Sprintf("tensor: dot length mismatch %d vs %d", len(x), len(y)))
	}
	return dot(x, y)
}

// gemmArgs is a fully resolved C += alpha·op(A)·B over raw row-major
// slices (beta is applied by the dispatcher before the kernel runs).
type gemmArgs struct {
	m, n, k int
	alpha   float32
	a       []float32
	lda     int
	ta      bool
	b       []float32
	ldb     int
	c       []float32
	ldc     int
	kc      int
}

// exec runs the serial kernel for output rows [i0, i1). Row-partitioned
// calls compose to exactly the full-range result: each C row accumulates
// its k terms in the same order for any partitioning, so parallel runs are
// bit-identical to serial ones.
func (g *gemmArgs) exec(i0, i1 int) {
	switch {
	case !g.ta:
		for kk := 0; kk < g.k; kk += g.kc {
			kend := min(kk+g.kc, g.k)
			for i := i0; i < i1; i++ {
				arow := g.a[i*g.lda+kk : i*g.lda+kend]
				crow := g.c[i*g.ldc : i*g.ldc+g.n]
				for p, av := range arow {
					if av == 0 {
						continue
					}
					bp := (kk + p) * g.ldb
					axpy(g.alpha*av, g.b[bp:bp+g.n], crow)
				}
			}
		}
	default:
		for p := 0; p < g.k; p++ {
			acol := g.a[p*g.lda : p*g.lda+g.m]
			brow := g.b[p*g.ldb : p*g.ldb+g.n]
			for i := i0; i < i1; i++ {
				av := acol[i]
				if av == 0 {
					continue
				}
				axpy(g.alpha*av, brow, g.c[i*g.ldc:i*g.ldc+g.n])
			}
		}
	}
}

// gemmRun is the shared state of one parallel GEMM; recycled via runPool
// so steady-state parallel calls allocate nothing.
type gemmRun struct {
	gemmArgs
	wg sync.WaitGroup
}

// gemmChunk is one worker task: a row range of a run.
type gemmChunk struct {
	r      *gemmRun
	i0, i1 int
}

var (
	runPool   = sync.Pool{New: func() any { return new(gemmRun) }}
	gemmOnce  sync.Once
	gemmTasks chan gemmChunk
)

// startGemmWorkers lazily spins up the persistent worker goroutines. The
// pool width is NumCPU; a Workers() setting above that still completes
// (excess chunks queue) but cannot add physical parallelism.
func startGemmWorkers() {
	gemmTasks = make(chan gemmChunk, 256)
	n := max(runtime.NumCPU(), 1)
	for i := 0; i < n; i++ {
		go func() {
			for t := range gemmTasks {
				t.r.exec(t.i0, t.i1)
				t.r.wg.Done()
			}
		}()
	}
}

// gemmDispatch applies beta and runs the kernel, serially or across the
// worker pool.
func gemmDispatch(g gemmArgs, beta float32) {
	switch beta {
	case 1:
	case 0:
		clear(g.c[:g.m*g.ldc])
	default:
		cs := g.c[:g.m*g.ldc]
		for i := range cs {
			cs[i] *= beta
		}
	}
	g.kc = BlockSize()
	w := Workers()
	if w > g.m {
		w = g.m
	}
	if w <= 1 || int64(g.m)*int64(g.n)*int64(g.k) < gemmParallelMin.Load() {
		g.exec(0, g.m)
		return
	}
	gemmOnce.Do(startGemmWorkers)
	r := runPool.Get().(*gemmRun)
	r.gemmArgs = g
	chunk := (g.m + w - 1) / w
	sent := 0
	for i0 := chunk; i0 < g.m; i0 += chunk {
		sent++
	}
	r.wg.Add(sent)
	for i0 := chunk; i0 < g.m; i0 += chunk {
		gemmTasks <- gemmChunk{r: r, i0: i0, i1: min(i0+chunk, g.m)}
	}
	r.exec(0, min(chunk, g.m))
	r.wg.Wait()
	r.gemmArgs = gemmArgs{} // drop slice references before pooling
	runPool.Put(r)
}

// Gemm computes c = alpha·op(a)·b + beta·c for rank-2 tensors, where op is
// the identity or the transpose. Shapes: op(a) is [m,k], b is [k,n], c is
// [m,n]. Either way each output is one chain in ascending k over alpha·a's
// elements (zeros skipped) — with alpha = 1 and beta = 0, bit-identical to
// the naive reference MatMul.
func Gemm(alpha float32, a *Tensor, transA bool, b *Tensor, beta float32, c *Tensor) {
	if a.Rank() != 2 || b.Rank() != 2 || c.Rank() != 2 {
		panic(fmt.Sprintf("tensor: gemm wants rank-2 operands, got %v × %v → %v", a.shape, b.shape, c.shape))
	}
	m, ka := a.shape[0], a.shape[1]
	if transA {
		m, ka = ka, m
	}
	kb, n := b.shape[0], b.shape[1]
	if ka != kb || c.shape[0] != m || c.shape[1] != n {
		panic(fmt.Sprintf("tensor: gemm shape mismatch op(%v) × %v → %v", a.shape, b.shape, c.shape))
	}
	g := gemmArgs{
		m: m, n: n, k: ka, alpha: alpha,
		a: a.data, lda: a.shape[1], ta: transA,
		b: b.data, ldb: b.shape[1],
		c: c.data, ldc: n,
	}
	gemmDispatch(g, beta)
}

// MatMulInto computes dst = a×b for rank-2 tensors [m,k]×[k,n] → [m,n],
// reusing dst's storage (dst must already have shape [m,n] and must not
// alias a or b).
func MatMulInto(dst, a, b *Tensor) {
	Gemm(1, a, false, b, 0, dst)
}

// mac2x2 is MulAddNT's register tile: it continues the four chains sIJ of
// rows a0, a1 against rows b0, b1 (all of b0's length) in ascending p. It is
// a function of its own so that the accumulators and row pointers are all
// the register allocator has to keep across the loop.
func mac2x2(a0, a1, b0, b1 []float32, s00, s01, s10, s11 float32) (_, _, _, _ float32) {
	a0, a1, b1 = a0[:len(b0)], a1[:len(b0)], b1[:len(b0)]
	for p, v0 := range b0 {
		v1 := b1[p]
		w := a0[p]
		s00 += w * v0
		s01 += w * v1
		w = a1[p]
		s10 += w * v0
		s11 += w * v1
	}
	return s00, s01, s10, s11
}

// MulAddNT computes c[i·ldc+j] += Σ_p a[i·lda+p]·b[j·ldb+p] for i < m,
// j < n, p < k over raw row-major slices with explicit leading dimensions,
// so rows of b may overlap (ldb < k): the full-width convolution reads its
// patches straight out of the input that way.
//
// Each output continues its single float32 accumulation chain from the
// value already in c, in ascending p. That makes the result bit-identical
// to the no-transpose Gemm path over a materialised bᵀ (same products,
// same order, one chain), and lets a caller split k across several calls —
// one per input channel, say — without re-associating the sum. It is
// always serial: SetWorkers and SetBlockSize do not apply.
//
// The kernel is register-tiled 2 rows of a × 2 rows of b, four accumulators
// fed by four loads per p; an odd last row or column is paired with itself,
// which computes (and stores) the same chain twice.
func MulAddNT(m, n, k int, a []float32, lda int, b []float32, ldb int, c []float32, ldc int) {
	if k <= 0 {
		return
	}
	for i := 0; i < m; i += 2 {
		i1 := min(i+1, m-1)
		a0, a1 := a[i*lda:i*lda+k], a[i1*lda:i1*lda+k]
		c0, c1 := c[i*ldc:i*ldc+n], c[i1*ldc:i1*ldc+n]
		for j := 0; j < n; j += 2 {
			j1 := min(j+1, n-1)
			c0[j], c0[j1], c1[j], c1[j1] = mac2x2(a0, a1, b[j*ldb:j*ldb+k], b[j1*ldb:j1*ldb+k],
				c0[j], c0[j1], c1[j], c1[j1])
		}
	}
}
