package main

import (
	"go/ast"
	"go/token"
	"go/types"
)

// determinism keeps replay/recovery and model-scoring code bit-stable
// across runs. WAL replay must rebuild the identical database twice in a
// row, and batch re-evaluation must equal realtime evaluation down to
// the last float ulp (PR 2's map-order float-summation bug broke exactly
// that). Inside the deterministic zones — internal/rdbms, internal/mlcore,
// internal/classify, internal/stream — wall clocks and the global
// math/rand state are banned (inject a clock or a seeded *rand.Rand
// instead), and float accumulators must not fold values in map iteration
// order. The stream zone keeps the pipeline testable under a fake clock:
// admission refill, the drain-rate estimate and the queue-wait stamps
// read the pipeline's injected now, so every wall-clock read there goes
// through it (the production default and the few cadence-only sites
// carry explicit scilint:ignore annotations).
type determinism struct{}

func (determinism) Name() string { return "determinism" }

func (determinism) Doc() string {
	return "no wall clock, global rand, or map-order float accumulation in replay/scoring zones"
}

// timeDeny are the time functions that read the wall clock. Durations,
// tickers and timers are cadence, not data, and stay legal.
var timeDeny = map[string]bool{"Now": true, "Since": true, "Until": true}

// randDeny are the math/rand (and rand/v2) package-level functions backed
// by the process-global, randomly-seeded source. Constructing a *rand.Rand
// from an injected seed (rand.New(rand.NewSource(seed))) is the sanctioned
// pattern and is not listed.
var randDeny = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Uint32": true, "Uint64": true,
	"Float32": true, "Float64": true, "ExpFloat64": true, "NormFloat64": true,
	"Perm": true, "Shuffle": true, "Read": true, "Seed": true,
	// math/rand/v2 spellings.
	"N": true, "IntN": true, "Int32N": true, "Int64N": true,
	"UintN": true, "Uint32N": true, "Uint64N": true,
}

func (d determinism) Run(p *Pass) {
	if !pathHasSegment(p.Path, "rdbms") && !pathHasSegment(p.Path, "mlcore") &&
		!pathHasSegment(p.Path, "classify") && !pathHasSegment(p.Path, "stream") {
		return
	}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.SelectorExpr:
				id, ok := x.X.(*ast.Ident)
				if !ok {
					return true
				}
				pn, ok := p.Info.Uses[id].(*types.PkgName)
				if !ok {
					return true
				}
				switch pn.Imported().Path() {
				case "time":
					if timeDeny[x.Sel.Name] {
						p.Reportf(x.Pos(), d.Name(),
							"time.%s in a deterministic zone: inject a clock so replay and re-evaluation stay reproducible", x.Sel.Name)
					}
				case "math/rand", "math/rand/v2":
					if randDeny[x.Sel.Name] {
						p.Reportf(x.Pos(), d.Name(),
							"global rand.%s in a deterministic zone: use a *rand.Rand built from an injected seed", x.Sel.Name)
					}
				}
			case *ast.RangeStmt:
				d.checkMapAccum(p, x)
			}
			return true
		})
	}
}

// checkMapAccum flags float accumulation inside `for range` over a map:
// the iteration order varies per run, and float addition is not
// associative, so the sum differs in the last ulp between runs.
func (d determinism) checkMapAccum(p *Pass, rs *ast.RangeStmt) {
	t := p.Info.TypeOf(rs.X)
	if t == nil {
		return
	}
	if _, ok := t.Underlying().(*types.Map); !ok {
		return
	}
	// The iteration variables: an assignment target indexed by the range
	// key touches a distinct element each iteration and is therefore
	// order-independent (w[i] += v over a sparse map is fine; sum += v is
	// not).
	rangeVars := map[types.Object]bool{}
	for _, e := range []ast.Expr{rs.Key, rs.Value} {
		if id, ok := e.(*ast.Ident); ok && id != nil {
			if obj := p.Info.Defs[id]; obj != nil {
				rangeVars[obj] = true
			} else if obj := p.Info.Uses[id]; obj != nil {
				rangeVars[obj] = true
			}
		}
	}
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		accum := false
		switch as.Tok {
		case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
			accum = true
		case token.ASSIGN:
			// x = x + v spelled out.
			if len(as.Lhs) == 1 && len(as.Rhs) == 1 {
				if bin, ok := as.Rhs[0].(*ast.BinaryExpr); ok {
					switch bin.Op {
					case token.ADD, token.SUB, token.MUL, token.QUO:
						lhs := types.ExprString(as.Lhs[0])
						accum = types.ExprString(bin.X) == lhs || types.ExprString(bin.Y) == lhs
					}
				}
			}
		}
		if !accum {
			return true
		}
		for _, lhs := range as.Lhs {
			if isFloat(p.Info.TypeOf(lhs)) && declaredOutside(p, lhs, rs) && !usesRangeVar(p, lhs, rangeVars) {
				p.Reportf(as.Pos(), d.Name(),
					"float accumulation in map iteration order is nondeterministic: collect keys, sort, then sum")
			}
		}
		return true
	})
}

// usesRangeVar reports whether expr mentions one of the range's
// iteration variables (as an index, typically).
func usesRangeVar(p *Pass, expr ast.Expr, rangeVars map[types.Object]bool) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && rangeVars[p.Info.Uses[id]] {
			found = true
		}
		return !found
	})
	return found
}

func isFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// declaredOutside reports whether the accumulator variable under lhs
// outlives the range statement (a per-iteration temporary is harmless).
func declaredOutside(p *Pass, lhs ast.Expr, rs *ast.RangeStmt) bool {
	for {
		switch x := lhs.(type) {
		case *ast.SelectorExpr:
			lhs = x.X
			continue
		case *ast.IndexExpr:
			lhs = x.X
			continue
		case *ast.StarExpr:
			lhs = x.X
			continue
		case *ast.ParenExpr:
			lhs = x.X
			continue
		case *ast.Ident:
			obj := p.Info.Uses[x]
			if obj == nil {
				obj = p.Info.Defs[x]
			}
			if obj == nil {
				return true // no info: assume it escapes the loop
			}
			return obj.Pos() < rs.Pos() || obj.Pos() > rs.End()
		default:
			return true
		}
	}
}
