package expr

import "compsynth/internal/interval"

// Flat tape: the jump-free lowering behind batched evaluation.
//
// The jump tape (tape.go) lowers If to conditional jumps, which is
// right for a single point — only the taken branch runs — but jumps are
// hostile to lanes:
//
//   - over a box, a condition is three-valued and TriUnknown needs BOTH
//     branch values (their hull);
//   - K lanes flow through one instruction stream, and different lanes
//     may take different branches.
//
// The flat tape therefore lowers If to straight-line code: condition,
// then-branch, else-branch, tSelect. Both branches always execute and
// the select keeps the taken value per lane (or the branch hull when
// the condition is TriUnknown over a box). This is semantically
// identical to branch-only evaluation because expression evaluation is
// pure and total — no operation traps or panics, division yields
// IEEE/relational-interval results, so computing and discarding the
// untaken branch is unobservable. The cost is wasted arithmetic under
// nested conditionals; the payoff is that one instruction-dispatch pass
// evaluates K boxes or K points (see batch.go). A single box is a
// 1-lane batch.
//
// The select holds the then-value and the condition live across the
// else-branch, so the flat tape can need deeper stacks than the jump
// tape; the emitter records its exact high-water marks and batches size
// their stack rows from them. There is no depth cap.

// flatTape is a select-lowered instruction stream sharing the packed
// encoding of tape. constsIv mirrors consts as point intervals so the
// interval interpreter indexes a pool instead of constructing intervals
// on every tConst dispatch. maxF and maxB are the float and bool stack
// depths the tape needs.
type flatTape struct {
	code       []uint32
	consts     []float64
	constsIv   []interval.Interval
	maxF, maxB int
}
