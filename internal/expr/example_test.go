package expr_test

import (
	"fmt"

	"compsynth/internal/expr"
)

func ExampleParse() {
	e, err := expr.Parse("if throughput >= ??tp then throughput - ??s*latency else 0")
	if err != nil {
		panic(err)
	}
	fmt.Println(expr.Holes(e))
	fmt.Println(expr.Vars(e))
	// Output:
	// [s tp]
	// [latency throughput]
}

func ExampleEval() {
	e := expr.MustParse("min(x, 2) * 10 + abs(-3)")
	v, err := expr.Eval(e, expr.Env{Vars: map[string]float64{"x": 1.5}})
	if err != nil {
		panic(err)
	}
	fmt.Println(v)
	// Output: 18
}

func ExampleSubst() {
	sketch := expr.MustParse("throughput - ??slope*latency")
	closed := expr.Subst(sketch, map[string]float64{"slope": 2})
	fmt.Println(closed)
	// Output: (throughput - (2 * latency))
}
