package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"
)

// UnitsDiscipline enforces the dB/linear conversion conventions of
// internal/units: power conversions must go through the units helpers.
// Arithmetic that mixes the two domains is unitsflow's report.
var UnitsDiscipline = &Analyzer{
	Name: "unitsdiscipline",
	Doc: "flag inline math.Pow(10, x/10), math.Pow(10, x/20) and 10|20*math.Log10(x) " +
		"conversions outside internal/units",
	Run: runUnitsDiscipline,
}

func runUnitsDiscipline(pass *Pass) {
	// The units package is the one place the raw formulas belong.
	if pass.Pkg.Path == "internal/units" || strings.HasSuffix(pass.Pkg.Path, "/internal/units") {
		return
	}
	inspect(pass, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.CallExpr:
			checkInlinePow(pass, e)
		case *ast.BinaryExpr:
			checkInlineLog(pass, e)
		}
		return true
	})
}

// pkgFunc returns the package-level function an expression refers to, or nil.
func pkgFunc(pass *Pass, e ast.Expr) *types.Func {
	var id *ast.Ident
	switch f := unparen(e).(type) {
	case *ast.Ident:
		id = f
	case *ast.SelectorExpr:
		id = f.Sel
	default:
		return nil
	}
	fn, ok := pass.Pkg.Info.Uses[id].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return nil
	}
	if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
		return nil
	}
	return fn
}

// isFunc reports whether the expression refers to pkgPath.name.
func isFunc(pass *Pass, e ast.Expr, pkgPath, name string) bool {
	fn := pkgFunc(pass, e)
	return fn != nil && fn.Pkg().Path() == pkgPath && fn.Name() == name
}

// constFloat returns the expression's constant numeric value, if any.
func constFloat(pass *Pass, e ast.Expr) (float64, bool) {
	tv, ok := pass.Pkg.Info.Types[e]
	if !ok || tv.Value == nil {
		return 0, false
	}
	v := constant.ToFloat(tv.Value)
	if v.Kind() != constant.Float {
		return 0, false
	}
	f, _ := constant.Float64Val(v)
	return f, true
}

// isConst reports whether the expression is the numeric constant want.
func isConst(pass *Pass, e ast.Expr, want float64) bool {
	f, ok := constFloat(pass, e)
	//lint:ignore floateq matching exactly-representable spelled constants (10, 20)
	return ok && f == want
}

// checkInlinePow flags math.Pow(10, x/10) and math.Pow(10, x/20).
func checkInlinePow(pass *Pass, call *ast.CallExpr) {
	if !isFunc(pass, call.Fun, "math", "Pow") || len(call.Args) != 2 {
		return
	}
	if !isConst(pass, call.Args[0], 10) {
		return
	}
	div, ok := unparen(call.Args[1]).(*ast.BinaryExpr)
	if !ok || div.Op != token.QUO {
		return
	}
	switch {
	case isConst(pass, div.Y, 10):
		pass.Report(call.Pos(),
			"inline dB-to-linear conversion math.Pow(10, x/10)",
			"use units.DBToLinear, or units.DBmToWatts for absolute powers")
	case isConst(pass, div.Y, 20):
		pass.Report(call.Pos(),
			"inline dB-to-voltage-gain conversion math.Pow(10, x/20)",
			"use units.DBToVoltageGain")
	}
}

// checkInlineLog flags 10*math.Log10(x) and 20*math.Log10(x).
func checkInlineLog(pass *Pass, bin *ast.BinaryExpr) {
	if bin.Op != token.MUL {
		return
	}
	for _, operands := range [][2]ast.Expr{{bin.X, bin.Y}, {bin.Y, bin.X}} {
		k, other := operands[0], operands[1]
		call, ok := unparen(other).(*ast.CallExpr)
		if !ok || !isFunc(pass, call.Fun, "math", "Log10") {
			continue
		}
		switch {
		case isConst(pass, k, 10):
			pass.Report(bin.Pos(),
				"inline linear-to-dB conversion 10*math.Log10(x)",
				"use units.LinearToDB, or units.WattsToDBm for absolute powers")
		case isConst(pass, k, 20):
			pass.Report(bin.Pos(),
				"inline voltage-gain-to-dB conversion 20*math.Log10(x)",
				"use units.VoltageGainToDB")
		}
		return
	}
}
