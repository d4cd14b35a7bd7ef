package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// UnitsFlow checks that arithmetic never mixes dB-domain and linear-domain
// quantities without a conversion. It *propagates* dB/linear domains
// through assignments, composite literals, calls and returns —
// intra-procedurally via a per-function fixpoint over assignment edges, and
// inter-procedurally via per-package function facts published in the Run's
// FactStore (packages are analyzed in dependency order, so callee facts from
// other module packages are visible).
//
// Domains are seeded from three sources: the ground-truth signature table of
// internal/units (the conversions define the unit system), identifier and
// field suffixes (`*DB`, `*dBm`, `*Watts`, `*Hz`, ...), and function names.
// The checks then flag:
//
//   - sums, differences, products and quotients of a dB-domain and a
//     linear-domain value, whether both names carry a suffix (gainDB *
//     powerWatts) or a domain arrived through an unsuffixed local (x :=
//     gainDB; y := x + noiseWatts) or a function boundary (x :=
//     pkg.NoiseFloorWatts(); x + marginDB);
//   - products of two dB-domain values (dB quantities compose by addition;
//     a dB×dB product is almost always a missing conversion);
//   - dB-domain arguments passed into linear-domain parameters and vice
//     versa (units.WattsToDBm(snrDB));
//   - composite-literal fields and declared results populated with the
//     opposite domain.
var UnitsFlow = &Analyzer{
	Name: "unitsflow",
	Doc: "propagate dB/linear unit domains through assignments, calls and " +
		"package boundaries, and flag mixed-domain arithmetic, dB×dB products, " +
		"mismatched call arguments, fields and returns",
	Run: runUnitsFlow,
}

func runUnitsFlow(pass *Pass) {
	// The units package converts between the domains by definition; its
	// facts come from the hardcoded table in facts.go.
	if isUnitsPackage(pass.Pkg.Path) {
		return
	}
	// Phase A, round 1: publish name-derived facts for every function in
	// the package, so round 2 and the body checks see intra-package callees
	// regardless of declaration order.
	for _, fd := range packageFuncs(pass) {
		publishFuncFact(pass, fd, false)
	}
	// Round 2: refine result domains from return statements (which may now
	// resolve through round-1 facts).
	for _, fd := range packageFuncs(pass) {
		publishFuncFact(pass, fd, true)
	}
	// Phase B: check every function body against the accumulated facts.
	for _, fd := range packageFuncs(pass) {
		if fd.Body != nil {
			checkUnitsFlow(pass, fd)
		}
	}
}

// packageFuncs lists the package's function declarations in file order.
func packageFuncs(pass *Pass) []*ast.FuncDecl {
	var out []*ast.FuncDecl
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok {
				out = append(out, fd)
			}
		}
	}
	return out
}

// publishFuncFact derives and publishes the unit fact of one function:
// parameter domains from parameter names, result domain from the function
// name or — when withReturns is set and the name is unsuffixed — from the
// joined domains of its return expressions.
func publishFuncFact(pass *Pass, fd *ast.FuncDecl, withReturns bool) {
	obj, ok := pass.Pkg.Info.Defs[fd.Name].(*types.Func)
	if !ok {
		return
	}
	sig, ok := obj.Type().(*types.Signature)
	if !ok {
		return
	}
	fact := FuncFact{Params: make([]Domain, sig.Params().Len())}
	for i := range fact.Params {
		fact.Params[i] = flowDomainOf(sig.Params().At(i).Name())
	}
	if sig.Results().Len() >= 1 && isNumericType(sig.Results().At(0).Type()) {
		fact.Result = flowDomainOf(fd.Name.Name)
		if !fact.Result.known() && withReturns && fd.Body != nil {
			fact.Result = returnedDomain(pass, fd)
		}
	}
	if fact.Result == DomainConflict {
		fact.Result = DomainNone
	}
	pass.Facts.SetFunc(obj, fact)
}

// returnedDomain joins the domains of the function's first return values.
func returnedDomain(pass *Pass, fd *ast.FuncDecl) Domain {
	env := buildFlowEnv(pass, fd)
	dom := DomainNone
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false // a closure's returns are not the function's
		}
		ret, ok := n.(*ast.ReturnStmt)
		if ok && len(ret.Results) > 0 {
			dom = dom.join(env.domainOf(ret.Results[0]))
		}
		return true
	})
	return dom
}

// flowEnv holds the per-function variable-domain environment. Variables
// whose names carry a unit suffix are classified directly; the environment
// tracks the rest as domains propagate through assignments.
type flowEnv struct {
	pass *Pass
	vars map[types.Object]Domain
}

// buildFlowEnv seeds the environment and iterates the assignment edges to a
// (bounded) fixpoint, so chains like a := gainDB; b := a; c := b resolve.
func buildFlowEnv(pass *Pass, fd *ast.FuncDecl) *flowEnv {
	env := &flowEnv{pass: pass, vars: make(map[types.Object]Domain)}
	// Three rounds bound the propagation depth through unsuffixed locals;
	// deeper chains are vanishingly rare in a single function.
	for i := 0; i < 3; i++ {
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch s := n.(type) {
			case *ast.AssignStmt:
				if (s.Tok == token.ASSIGN || s.Tok == token.DEFINE) && len(s.Lhs) == len(s.Rhs) {
					for i := range s.Lhs {
						env.absorb(s.Lhs[i], s.Rhs[i])
					}
				}
			case *ast.ValueSpec:
				if len(s.Names) == len(s.Values) {
					for i := range s.Names {
						env.absorb(s.Names[i], s.Values[i])
					}
				}
			case *ast.RangeStmt:
				// for _, g := range gainsDB: the element inherits the
				// container's domain.
				if v, ok := s.Value.(*ast.Ident); ok {
					if d := env.domainOf(s.X); d.known() {
						env.set(v, d)
					}
				}
			}
			return true
		})
	}
	return env
}

// absorb records that the identifier lhs received a value of rhs's domain.
func (env *flowEnv) absorb(lhs ast.Expr, rhs ast.Expr) {
	id, ok := unparen(lhs).(*ast.Ident)
	if !ok {
		return
	}
	if d := env.domainOf(rhs); d.known() {
		env.set(id, d)
	}
}

// set joins a domain observation into the identifier's environment entry.
// Identifiers whose names already carry a suffix are authoritative and never
// tracked.
func (env *flowEnv) set(id *ast.Ident, d Domain) {
	if flowDomainOf(id.Name).known() {
		return
	}
	obj := env.pass.Pkg.Info.Defs[id]
	if obj == nil {
		obj = env.pass.Pkg.Info.Uses[id]
	}
	if _, ok := obj.(*types.Var); !ok {
		return
	}
	env.vars[obj] = env.vars[obj].join(d)
}

// domainOf evaluates the unit domain of an expression.
func (env *flowEnv) domainOf(e ast.Expr) Domain {
	info := env.pass.Pkg.Info
	switch x := e.(type) {
	case *ast.ParenExpr:
		return env.domainOf(x.X)
	case *ast.UnaryExpr:
		if x.Op == token.SUB || x.Op == token.ADD {
			return env.domainOf(x.X)
		}
	case *ast.StarExpr:
		return env.domainOf(x.X)
	case *ast.Ident:
		obj := info.Uses[x]
		if obj == nil {
			obj = info.Defs[x]
		}
		switch obj.(type) {
		case *types.Var, *types.Const:
			if d := flowDomainOf(x.Name); d.known() {
				return d
			}
			return env.vars[obj]
		}
	case *ast.SelectorExpr:
		switch info.Uses[x.Sel].(type) {
		case *types.Var, *types.Const:
			return flowDomainOf(x.Sel.Name)
		}
	case *ast.IndexExpr:
		return env.domainOf(x.X) // gainsDB[i] carries the container's domain
	case *ast.CallExpr:
		if tv, ok := info.Types[x.Fun]; ok && tv.IsType() && len(x.Args) == 1 {
			return env.domainOf(x.Args[0]) // conversion preserves domain
		}
		if fn := calleeFunc(env.pass, x); fn != nil {
			if fact, ok := env.pass.Facts.Func(fn); ok {
				return fact.Result
			}
		}
	case *ast.BinaryExpr:
		return env.binaryDomain(x)
	}
	return DomainNone
}

// binaryDomain propagates a domain through arithmetic. Mixed-domain sums
// and dB×dB products evaluate to DomainNone here; reporting them is the
// checker's job, and collapsing to unknown keeps one error from cascading.
func (env *flowEnv) binaryDomain(x *ast.BinaryExpr) Domain {
	dx := env.domainOf(x.X)
	dy := env.domainOf(x.Y)
	switch x.Op {
	case token.ADD, token.SUB:
		if dx.known() && dy.known() {
			if dx == dy {
				return dx
			}
			return DomainNone // mixed: reported separately
		}
		return dx.join(dy)
	case token.MUL:
		switch {
		case dx == DomainLinear && dy == DomainLinear:
			return DomainLinear
		case dx == DomainDB && !dy.known():
			return DomainDB // scaling a dB quantity by a plain factor
		case dy == DomainDB && !dx.known():
			return DomainDB
		}
	case token.QUO:
		switch {
		case dx == DomainLinear && dy == DomainLinear:
			return DomainLinear
		case dx == DomainDB && !dy.known():
			return DomainDB
		}
	}
	return DomainNone
}

// calleeFunc resolves the function or method a call invokes, if static.
func calleeFunc(pass *Pass, call *ast.CallExpr) *types.Func {
	switch f := unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := pass.Pkg.Info.Uses[f].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := pass.Pkg.Info.Uses[f.Sel].(*types.Func)
		return fn
	}
	return nil
}

// isNumericType reports whether the type is a numeric basic type.
func isNumericType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsNumeric != 0
}

// checkUnitsFlow runs the mixed-domain checks over one function body.
func checkUnitsFlow(pass *Pass, fd *ast.FuncDecl) {
	env := buildFlowEnv(pass, fd)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.BinaryExpr:
			checkFlowBinary(pass, env, e)
		case *ast.AssignStmt:
			checkFlowCompound(pass, env, e)
		case *ast.CallExpr:
			checkFlowCall(pass, env, e)
		case *ast.CompositeLit:
			checkFlowComposite(pass, env, e)
		}
		return true
	})
	checkFlowReturns(pass, env, fd)
}

// exprLabel describes an expression for a diagnostic.
func exprLabel(e ast.Expr) string {
	switch x := unparen(e).(type) {
	case *ast.Ident:
		return "\"" + x.Name + "\""
	case *ast.SelectorExpr:
		return "\"" + x.Sel.Name + "\""
	case *ast.CallExpr:
		if fn := unparen(x.Fun); fn != nil {
			if sel, ok := fn.(*ast.SelectorExpr); ok {
				return "call of " + sel.Sel.Name
			}
			if id, ok := fn.(*ast.Ident); ok {
				return "call of " + id.Name
			}
		}
		return "call result"
	case *ast.UnaryExpr:
		return exprLabel(x.X)
	case *ast.IndexExpr:
		return "element of " + exprLabel(x.X)
	}
	return "expression"
}

// checkFlowBinary flags sums, differences, products and quotients of a
// dB-domain and a linear-domain value, and dB×dB products.
func checkFlowBinary(pass *Pass, env *flowEnv, e *ast.BinaryExpr) {
	switch e.Op {
	case token.ADD, token.SUB, token.MUL, token.QUO:
	default:
		return
	}
	dx, dy := env.domainOf(e.X), env.domainOf(e.Y)
	switch {
	case dx.known() && dy.known() && dx != dy:
		dbSide, linSide := exprLabel(e.X), exprLabel(e.Y)
		if dx == DomainLinear {
			dbSide, linSide = linSide, dbSide
		}
		pass.Reportf(e.Pos(),
			"convert one side with units.DBToLinear/units.LinearToDB (or the dBm/watts forms) first",
			"arithmetic mixes dB-domain %s with linear-domain %s", dbSide, linSide)
	case e.Op == token.MUL && dx == DomainDB && dy == DomainDB:
		pass.Reportf(e.Pos(),
			"dB quantities compose by addition; convert to linear with units.DBToLinear before multiplying",
			"product of two dB-domain values (%s × %s)", exprLabel(e.X), exprLabel(e.Y))
	}
}

// checkFlowCompound flags += and -= whose sides carry opposite domains.
func checkFlowCompound(pass *Pass, env *flowEnv, e *ast.AssignStmt) {
	if e.Tok != token.ADD_ASSIGN && e.Tok != token.SUB_ASSIGN {
		return
	}
	if len(e.Lhs) != 1 || len(e.Rhs) != 1 {
		return
	}
	dl := env.domainOf(e.Lhs[0])
	dr := env.domainOf(e.Rhs[0])
	if dl.known() && dr.known() && dl != dr {
		pass.Reportf(e.Pos(),
			"convert one side with units.DBToLinear/units.LinearToDB (or the dBm/watts forms) first",
			"compound assignment mixes %s-domain %s with %s-domain %s",
			dl, exprLabel(e.Lhs[0]), dr, exprLabel(e.Rhs[0]))
	}
}

// checkFlowCall flags arguments whose domain contradicts the callee's
// parameter fact — including callees in other module packages, whose facts
// were published when their package was analyzed.
func checkFlowCall(pass *Pass, env *flowEnv, call *ast.CallExpr) {
	fn := calleeFunc(pass, call)
	if fn == nil {
		return
	}
	fact, ok := pass.Facts.Func(fn)
	if !ok || len(fact.Params) == 0 {
		return
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return
	}
	for i, arg := range call.Args {
		pi := i
		if sig.Variadic() && pi >= len(fact.Params)-1 {
			pi = len(fact.Params) - 1
		}
		if pi >= len(fact.Params) {
			break
		}
		pd := fact.Params[pi]
		ad := env.domainOf(arg)
		if pd.known() && ad.known() && pd != ad {
			pass.Reportf(arg.Pos(),
				"convert the argument with units.DBToLinear/units.LinearToDB (or the dBm/watts forms) first",
				"%s-domain argument %s passed to %s-domain parameter %q of %s",
				ad, exprLabel(arg), pd, sig.Params().At(pi).Name(), fn.Name())
		}
	}
}

// checkFlowComposite flags keyed struct-literal fields populated with the
// opposite domain (Config{NoiseFloorDBm: noiseWatts}).
func checkFlowComposite(pass *Pass, env *flowEnv, e *ast.CompositeLit) {
	tv, ok := pass.Pkg.Info.Types[e]
	if !ok || tv.Type == nil {
		return
	}
	if _, ok := tv.Type.Underlying().(*types.Struct); !ok {
		return
	}
	for _, elt := range e.Elts {
		kv, ok := elt.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		key, ok := kv.Key.(*ast.Ident)
		if !ok {
			continue
		}
		fieldD := flowDomainOf(key.Name)
		valD := env.domainOf(kv.Value)
		if fieldD.known() && valD.known() && fieldD != valD {
			pass.Reportf(kv.Pos(),
				"convert the value with units.DBToLinear/units.LinearToDB (or the dBm/watts forms) first",
				"%s-domain value %s assigned to %s-domain field %q",
				valD, exprLabel(kv.Value), fieldD, key.Name)
		}
	}
}

// checkFlowReturns flags return values whose domain contradicts the
// function's declared (name-suffixed) result domain. Only the function's own
// returns count; closures return to their own signatures.
func checkFlowReturns(pass *Pass, env *flowEnv, fd *ast.FuncDecl) {
	declared := flowDomainOf(fd.Name.Name)
	if !declared.known() {
		return
	}
	obj, ok := pass.Pkg.Info.Defs[fd.Name].(*types.Func)
	if !ok {
		return
	}
	sig := obj.Type().(*types.Signature)
	if sig.Results().Len() < 1 || !isNumericType(sig.Results().At(0).Type()) {
		return
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		ret, ok := n.(*ast.ReturnStmt)
		if !ok || len(ret.Results) == 0 {
			return true
		}
		if d := env.domainOf(ret.Results[0]); d.known() && d != declared {
			pass.Reportf(ret.Pos(),
				"convert the return value with units.DBToLinear/units.LinearToDB (or the dBm/watts forms) first",
				"%s-domain value %s returned from %s-suffixed function %q",
				d, exprLabel(ret.Results[0]), declared, fd.Name.Name)
		}
		return true
	})
}
