package expr

import "math"

// Elementwise lane kernels of the point interpreter: the scenario
// batch's register loop (scenario.go) runs each step with one of these,
// so each operation's arithmetic is written once, as the scalar
// operation of the AST interpreter (eval.go) applied lane by lane. A
// kernel writes lane l of dst from lane l of its operands, for every
// lane of dst; operands are at least as long as dst. Reslicing the
// operands to len(dst) lets the compiler drop the per-lane bounds
// checks, and every kernel is small enough to inline.

func fillLanes(dst []float64, v float64) {
	for l := range dst {
		dst[l] = v
	}
}

func fillBoolLanes(dst []bool, v bool) {
	for l := range dst {
		dst[l] = v
	}
}

func addLanes(dst, a, c []float64) {
	a, c = a[:len(dst)], c[:len(dst)]
	for l := range dst {
		dst[l] = a[l] + c[l]
	}
}

func subLanes(dst, a, c []float64) {
	a, c = a[:len(dst)], c[:len(dst)]
	for l := range dst {
		dst[l] = a[l] - c[l]
	}
}

func mulLanes(dst, a, c []float64) {
	a, c = a[:len(dst)], c[:len(dst)]
	for l := range dst {
		dst[l] = a[l] * c[l]
	}
}

func divLanes(dst, a, c []float64) {
	a, c = a[:len(dst)], c[:len(dst)]
	for l := range dst {
		dst[l] = a[l] / c[l]
	}
}

func minLanes(dst, a, c []float64) {
	a, c = a[:len(dst)], c[:len(dst)]
	for l := range dst {
		dst[l] = min(a[l], c[l])
	}
}

func maxLanes(dst, a, c []float64) {
	a, c = a[:len(dst)], c[:len(dst)]
	for l := range dst {
		dst[l] = max(a[l], c[l])
	}
}

func negLanes(dst, a []float64) {
	a = a[:len(dst)]
	for l := range dst {
		dst[l] = -a[l]
	}
}

func absLanes(dst, a []float64) {
	a = a[:len(dst)]
	for l := range dst {
		dst[l] = math.Abs(a[l])
	}
}

func geLanes(dst []bool, a, c []float64) {
	a, c = a[:len(dst)], c[:len(dst)]
	for l := range dst {
		dst[l] = a[l] >= c[l]
	}
}

func leLanes(dst []bool, a, c []float64) {
	a, c = a[:len(dst)], c[:len(dst)]
	for l := range dst {
		dst[l] = a[l] <= c[l]
	}
}

func gtLanes(dst []bool, a, c []float64) {
	a, c = a[:len(dst)], c[:len(dst)]
	for l := range dst {
		dst[l] = a[l] > c[l]
	}
}

func ltLanes(dst []bool, a, c []float64) {
	a, c = a[:len(dst)], c[:len(dst)]
	for l := range dst {
		dst[l] = a[l] < c[l]
	}
}

func eqLanes(dst []bool, a, c []float64) {
	a, c = a[:len(dst)], c[:len(dst)]
	for l := range dst {
		dst[l] = a[l] == c[l]
	}
}

func andLanes(dst, p, q []bool) {
	p, q = p[:len(dst)], q[:len(dst)]
	for l := range dst {
		dst[l] = p[l] && q[l]
	}
}

func orLanes(dst, p, q []bool) {
	p, q = p[:len(dst)], q[:len(dst)]
	for l := range dst {
		dst[l] = p[l] || q[l]
	}
}

func notLanes(dst, p []bool) {
	p = p[:len(dst)]
	for l := range dst {
		dst[l] = !p[l]
	}
}

// selectLanes keeps a's lane where cond holds and c's elsewhere.
func selectLanes(dst []float64, cond []bool, a, c []float64) {
	cond, a, c = cond[:len(dst)], a[:len(dst)], c[:len(dst)]
	for l := range dst {
		v := c[l]
		if cond[l] {
			v = a[l]
		}
		dst[l] = v
	}
}
