package relational

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/engine"
)

// qualCol is one column of a working (possibly joined) row, carrying its
// table qualifier for name resolution.
type qualCol struct {
	Table string // alias or table name, lower-cased
	Name  string // column name, lower-cased
	Type  engine.Type
}

// rowSchema describes the working rows flowing through the executor.
type rowSchema []qualCol

func baseRowSchema(tableName string, s engine.Schema) rowSchema {
	rs := make(rowSchema, len(s.Columns))
	for i, c := range s.Columns {
		rs[i] = qualCol{Table: strings.ToLower(tableName), Name: strings.ToLower(c.Name), Type: c.Type}
	}
	return rs
}

// toSchema flattens the working schema to a plain engine schema
// (qualifiers dropped), used for intermediate column batches.
func (rs rowSchema) toSchema() engine.Schema {
	cols := make([]engine.Column, len(rs))
	for i, c := range rs {
		cols[i] = engine.Col(c.Name, c.Type)
	}
	return engine.Schema{Columns: cols}
}

// resolve finds the index of a (possibly qualified) column reference.
func (rs rowSchema) resolve(table, name string) (int, error) {
	table = strings.ToLower(table)
	name = strings.ToLower(name)
	found := -1
	for i, c := range rs {
		if c.Name != name {
			continue
		}
		if table != "" && c.Table != table {
			continue
		}
		if found >= 0 {
			return -1, fmt.Errorf("relational: ambiguous column %q", name)
		}
		found = i
	}
	if found < 0 {
		if table != "" {
			return -1, fmt.Errorf("relational: no column %s.%s", table, name)
		}
		return -1, fmt.Errorf("relational: no column %q", name)
	}
	return found, nil
}

// evaluator is a compiled scalar expression: schema resolution happens
// once, then evaluation is index-based per row.
type evaluator func(row engine.Tuple) (engine.Value, error)

// compileExpr compiles e against rs. Aggregate calls are resolved via
// aggLookup (nil outside grouped execution); they look up precomputed
// per-group values by the expression's string key.
func compileExpr(e Expr, rs rowSchema, aggLookup func(key string, row engine.Tuple) (engine.Value, bool)) (evaluator, error) {
	switch ex := e.(type) {
	case Literal:
		v := ex.Val
		return func(engine.Tuple) (engine.Value, error) { return v, nil }, nil
	case ColumnRef:
		idx, err := rs.resolve(ex.Table, ex.Name)
		if err != nil {
			return nil, err
		}
		return func(row engine.Tuple) (engine.Value, error) { return row[idx], nil }, nil
	case UnaryExpr:
		inner, err := compileExpr(ex.Expr, rs, aggLookup)
		if err != nil {
			return nil, err
		}
		switch ex.Op {
		case "NOT":
			return func(row engine.Tuple) (engine.Value, error) {
				v, err := inner(row)
				if err != nil {
					return engine.Null, err
				}
				if v.IsNull() {
					return engine.Null, nil
				}
				return engine.NewBool(!v.AsBool()), nil
			}, nil
		case "-":
			return func(row engine.Tuple) (engine.Value, error) {
				v, err := inner(row)
				if err != nil || v.IsNull() {
					return engine.Null, err
				}
				if v.Kind == engine.TypeInt {
					return engine.NewInt(-v.I), nil
				}
				return engine.NewFloat(-v.AsFloat()), nil
			}, nil
		default:
			return nil, fmt.Errorf("relational: unknown unary op %q", ex.Op)
		}
	case BinaryExpr:
		return compileBinary(ex, rs, aggLookup)
	case InExpr:
		inner, err := compileExpr(ex.Expr, rs, aggLookup)
		if err != nil {
			return nil, err
		}
		list := make([]evaluator, len(ex.List))
		for i, le := range ex.List {
			list[i], err = compileExpr(le, rs, aggLookup)
			if err != nil {
				return nil, err
			}
		}
		not := ex.Not
		return func(row engine.Tuple) (engine.Value, error) {
			v, err := inner(row)
			if err != nil {
				return engine.Null, err
			}
			if v.IsNull() {
				return engine.Null, nil
			}
			for _, le := range list {
				lv, err := le(row)
				if err != nil {
					return engine.Null, err
				}
				if engine.Equal(v, lv) {
					return engine.NewBool(!not), nil
				}
			}
			return engine.NewBool(not), nil
		}, nil
	case IsNullExpr:
		inner, err := compileExpr(ex.Expr, rs, aggLookup)
		if err != nil {
			return nil, err
		}
		not := ex.Not
		return func(row engine.Tuple) (engine.Value, error) {
			v, err := inner(row)
			if err != nil {
				return engine.Null, err
			}
			return engine.NewBool(v.IsNull() != not), nil
		}, nil
	case BetweenExpr:
		inner, err := compileExpr(ex.Expr, rs, aggLookup)
		if err != nil {
			return nil, err
		}
		lo, err := compileExpr(ex.Lo, rs, aggLookup)
		if err != nil {
			return nil, err
		}
		hi, err := compileExpr(ex.Hi, rs, aggLookup)
		if err != nil {
			return nil, err
		}
		not := ex.Not
		return func(row engine.Tuple) (engine.Value, error) {
			v, err := inner(row)
			if err != nil || v.IsNull() {
				return engine.Null, err
			}
			lv, err := lo(row)
			if err != nil {
				return engine.Null, err
			}
			hv, err := hi(row)
			if err != nil {
				return engine.Null, err
			}
			in := engine.Compare(v, lv) >= 0 && engine.Compare(v, hv) <= 0
			return engine.NewBool(in != not), nil
		}, nil
	case FuncCall:
		if aggregateNames[ex.Name] {
			if aggLookup == nil {
				return nil, fmt.Errorf("relational: aggregate %s outside grouped query", ex.Name)
			}
			key := exprKey(ex)
			return func(row engine.Tuple) (engine.Value, error) {
				v, ok := aggLookup(key, row)
				if !ok {
					return engine.Null, fmt.Errorf("relational: aggregate %s not computed", key)
				}
				return v, nil
			}, nil
		}
		return compileScalarFunc(ex, rs, aggLookup)
	default:
		return nil, fmt.Errorf("relational: cannot compile %T", e)
	}
}

func compileBinary(ex BinaryExpr, rs rowSchema, aggLookup func(string, engine.Tuple) (engine.Value, bool)) (evaluator, error) {
	left, err := compileExpr(ex.Left, rs, aggLookup)
	if err != nil {
		return nil, err
	}
	right, err := compileExpr(ex.Right, rs, aggLookup)
	if err != nil {
		return nil, err
	}
	op := ex.Op
	switch op {
	case "AND":
		return func(row engine.Tuple) (engine.Value, error) {
			l, err := left(row)
			if err != nil {
				return engine.Null, err
			}
			if !l.IsNull() && !l.AsBool() {
				return engine.NewBool(false), nil
			}
			r, err := right(row)
			if err != nil {
				return engine.Null, err
			}
			if !r.IsNull() && !r.AsBool() {
				return engine.NewBool(false), nil
			}
			if l.IsNull() || r.IsNull() {
				return engine.Null, nil
			}
			return engine.NewBool(true), nil
		}, nil
	case "OR":
		return func(row engine.Tuple) (engine.Value, error) {
			l, err := left(row)
			if err != nil {
				return engine.Null, err
			}
			if !l.IsNull() && l.AsBool() {
				return engine.NewBool(true), nil
			}
			r, err := right(row)
			if err != nil {
				return engine.Null, err
			}
			if !r.IsNull() && r.AsBool() {
				return engine.NewBool(true), nil
			}
			if l.IsNull() || r.IsNull() {
				return engine.Null, nil
			}
			return engine.NewBool(false), nil
		}, nil
	case "=", "<>", "<", "<=", ">", ">=":
		cop := cmpOps[op]
		return func(row engine.Tuple) (engine.Value, error) {
			l, err := left(row)
			if err != nil {
				return engine.Null, err
			}
			r, err := right(row)
			if err != nil {
				return engine.Null, err
			}
			if l.IsNull() || r.IsNull() {
				return engine.Null, nil
			}
			return engine.NewBool(cop.holds(engine.Compare(l, r))), nil
		}, nil
	case "LIKE":
		return func(row engine.Tuple) (engine.Value, error) {
			l, err := left(row)
			if err != nil {
				return engine.Null, err
			}
			r, err := right(row)
			if err != nil {
				return engine.Null, err
			}
			if l.IsNull() || r.IsNull() {
				return engine.Null, nil
			}
			return engine.NewBool(likeMatch(l.String(), r.String())), nil
		}, nil
	case "||":
		return func(row engine.Tuple) (engine.Value, error) {
			l, err := left(row)
			if err != nil {
				return engine.Null, err
			}
			r, err := right(row)
			if err != nil {
				return engine.Null, err
			}
			if l.IsNull() || r.IsNull() {
				return engine.Null, nil
			}
			return engine.NewString(l.String() + r.String()), nil
		}, nil
	case "+", "-", "*", "/", "%":
		return func(row engine.Tuple) (engine.Value, error) {
			l, err := left(row)
			if err != nil {
				return engine.Null, err
			}
			r, err := right(row)
			if err != nil {
				return engine.Null, err
			}
			if l.IsNull() || r.IsNull() {
				return engine.Null, nil
			}
			return arith(op, l, r)
		}, nil
	default:
		return nil, fmt.Errorf("relational: unknown binary op %q", op)
	}
}

func arith(op string, l, r engine.Value) (engine.Value, error) {
	bothInt := l.Kind == engine.TypeInt && r.Kind == engine.TypeInt
	if bothInt {
		a, b := l.I, r.I
		switch op {
		case "+":
			return engine.NewInt(a + b), nil
		case "-":
			return engine.NewInt(a - b), nil
		case "*":
			return engine.NewInt(a * b), nil
		case "/":
			if b == 0 {
				return engine.Null, fmt.Errorf("relational: division by zero")
			}
			return engine.NewInt(a / b), nil
		case "%":
			if b == 0 {
				return engine.Null, fmt.Errorf("relational: modulo by zero")
			}
			return engine.NewInt(a % b), nil
		}
	}
	a, b := l.AsFloat(), r.AsFloat()
	switch op {
	case "+":
		return engine.NewFloat(a + b), nil
	case "-":
		return engine.NewFloat(a - b), nil
	case "*":
		return engine.NewFloat(a * b), nil
	case "/":
		if b == 0 {
			return engine.Null, fmt.Errorf("relational: division by zero")
		}
		return engine.NewFloat(a / b), nil
	case "%":
		return engine.NewFloat(math.Mod(a, b)), nil
	}
	return engine.Null, fmt.Errorf("relational: unknown arithmetic op %q", op)
}

// likeMatch implements SQL LIKE with % (any run) and _ (any single
// char), case-insensitive like Postgres ILIKE for demo friendliness.
func likeMatch(s, pattern string) bool {
	return likeIter(strings.ToLower(s), strings.ToLower(pattern))
}

// likeIter matches iteratively with two cursors and single-level
// backtracking to the most recent %. Nested recursion per % made
// pathological patterns like %a%a%a%… against a long non-matching
// string exponential; this form is O(len(s)·len(p)) worst case.
func likeIter(s, p string) bool {
	si, pi := 0, 0
	star, ss := -1, 0 // position of the last % in p, and the s index its run currently ends at
	for si < len(s) {
		switch {
		case pi < len(p) && (p[pi] == '_' || p[pi] == s[si]):
			si++
			pi++
		case pi < len(p) && p[pi] == '%':
			star, ss = pi, si
			pi++
		case star >= 0:
			// Mismatch after a %: widen that %'s run by one and retry.
			ss++
			si, pi = ss, star+1
		default:
			return false
		}
	}
	for pi < len(p) && p[pi] == '%' {
		pi++
	}
	return pi == len(p)
}

func compileScalarFunc(ex FuncCall, rs rowSchema, aggLookup func(string, engine.Tuple) (engine.Value, bool)) (evaluator, error) {
	args := make([]evaluator, len(ex.Args))
	var err error
	for i, a := range ex.Args {
		args[i], err = compileExpr(a, rs, aggLookup)
		if err != nil {
			return nil, err
		}
	}
	need := func(n int) error {
		if len(args) != n {
			return fmt.Errorf("relational: %s expects %d args, got %d", ex.Name, n, len(args))
		}
		return nil
	}
	evalArgs := func(row engine.Tuple) ([]engine.Value, error) {
		vs := make([]engine.Value, len(args))
		for i, a := range args {
			v, err := a(row)
			if err != nil {
				return nil, err
			}
			vs[i] = v
		}
		return vs, nil
	}
	float1 := func(f func(float64) float64) (evaluator, error) {
		if err := need(1); err != nil {
			return nil, err
		}
		return func(row engine.Tuple) (engine.Value, error) {
			v, err := args[0](row)
			if err != nil || v.IsNull() {
				return engine.Null, err
			}
			return engine.NewFloat(f(v.AsFloat())), nil
		}, nil
	}
	switch ex.Name {
	case "ABS":
		if err := need(1); err != nil {
			return nil, err
		}
		return func(row engine.Tuple) (engine.Value, error) {
			v, err := args[0](row)
			if err != nil || v.IsNull() {
				return engine.Null, err
			}
			if v.Kind == engine.TypeInt {
				if v.I < 0 {
					return engine.NewInt(-v.I), nil
				}
				return v, nil
			}
			return engine.NewFloat(math.Abs(v.AsFloat())), nil
		}, nil
	case "SQRT":
		return float1(math.Sqrt)
	case "LOG", "LN":
		return float1(math.Log)
	case "EXP":
		return float1(math.Exp)
	case "SIN":
		return float1(math.Sin)
	case "COS":
		return float1(math.Cos)
	case "FLOOR":
		return float1(math.Floor)
	case "CEIL", "CEILING":
		return float1(math.Ceil)
	case "ROUND":
		if len(args) == 2 {
			return func(row engine.Tuple) (engine.Value, error) {
				vs, err := evalArgs(row)
				if err != nil || vs[0].IsNull() {
					return engine.Null, err
				}
				scale := math.Pow10(int(vs[1].AsInt()))
				return engine.NewFloat(math.Round(vs[0].AsFloat()*scale) / scale), nil
			}, nil
		}
		return float1(math.Round)
	case "POW", "POWER":
		if err := need(2); err != nil {
			return nil, err
		}
		return func(row engine.Tuple) (engine.Value, error) {
			vs, err := evalArgs(row)
			if err != nil || vs[0].IsNull() || vs[1].IsNull() {
				return engine.Null, err
			}
			return engine.NewFloat(math.Pow(vs[0].AsFloat(), vs[1].AsFloat())), nil
		}, nil
	case "MOD":
		if err := need(2); err != nil {
			return nil, err
		}
		return func(row engine.Tuple) (engine.Value, error) {
			vs, err := evalArgs(row)
			if err != nil || vs[0].IsNull() || vs[1].IsNull() {
				return engine.Null, err
			}
			return arith("%", vs[0], vs[1])
		}, nil
	case "LOWER":
		if err := need(1); err != nil {
			return nil, err
		}
		return func(row engine.Tuple) (engine.Value, error) {
			v, err := args[0](row)
			if err != nil || v.IsNull() {
				return engine.Null, err
			}
			return engine.NewString(strings.ToLower(v.String())), nil
		}, nil
	case "UPPER":
		if err := need(1); err != nil {
			return nil, err
		}
		return func(row engine.Tuple) (engine.Value, error) {
			v, err := args[0](row)
			if err != nil || v.IsNull() {
				return engine.Null, err
			}
			return engine.NewString(strings.ToUpper(v.String())), nil
		}, nil
	case "LENGTH":
		if err := need(1); err != nil {
			return nil, err
		}
		return func(row engine.Tuple) (engine.Value, error) {
			v, err := args[0](row)
			if err != nil || v.IsNull() {
				return engine.Null, err
			}
			return engine.NewInt(int64(len(v.String()))), nil
		}, nil
	case "SUBSTR", "SUBSTRING":
		if len(args) != 2 && len(args) != 3 {
			return nil, fmt.Errorf("relational: SUBSTR expects 2 or 3 args")
		}
		return func(row engine.Tuple) (engine.Value, error) {
			vs, err := evalArgs(row)
			if err != nil || vs[0].IsNull() {
				return engine.Null, err
			}
			s := vs[0].String()
			start := int(vs[1].AsInt()) - 1 // SQL is 1-based
			if start < 0 {
				start = 0
			}
			if start > len(s) {
				return engine.NewString(""), nil
			}
			end := len(s)
			if len(vs) == 3 {
				if e := start + int(vs[2].AsInt()); e < end {
					end = e
				}
			}
			if end < start {
				end = start
			}
			return engine.NewString(s[start:end]), nil
		}, nil
	case "CONCAT":
		return func(row engine.Tuple) (engine.Value, error) {
			vs, err := evalArgs(row)
			if err != nil {
				return engine.Null, err
			}
			var sb strings.Builder
			for _, v := range vs {
				sb.WriteString(v.String())
			}
			return engine.NewString(sb.String()), nil
		}, nil
	case "COALESCE":
		return func(row engine.Tuple) (engine.Value, error) {
			for _, a := range args {
				v, err := a(row)
				if err != nil {
					return engine.Null, err
				}
				if !v.IsNull() {
					return v, nil
				}
			}
			return engine.Null, nil
		}, nil
	default:
		return nil, fmt.Errorf("relational: unknown function %s", ex.Name)
	}
}

// exprKey renders a canonical string for an expression, used to identify
// aggregate computations and DISTINCT/group keys.
func exprKey(e Expr) string {
	switch ex := e.(type) {
	case nil:
		return "<nil>"
	case Literal:
		return fmt.Sprintf("lit(%d:%s)", ex.Val.Kind, ex.Val.String())
	case ColumnRef:
		return strings.ToLower(ex.Table) + "." + strings.ToLower(ex.Name)
	case BinaryExpr:
		return "(" + exprKey(ex.Left) + " " + ex.Op + " " + exprKey(ex.Right) + ")"
	case UnaryExpr:
		return ex.Op + "(" + exprKey(ex.Expr) + ")"
	case FuncCall:
		parts := make([]string, len(ex.Args))
		for i, a := range ex.Args {
			parts[i] = exprKey(a)
		}
		star := ""
		if ex.Star {
			star = "*"
		}
		distinct := ""
		if ex.Distinct {
			distinct = "distinct "
		}
		return ex.Name + "(" + distinct + star + strings.Join(parts, ",") + ")"
	case InExpr:
		parts := make([]string, len(ex.List))
		for i, a := range ex.List {
			parts[i] = exprKey(a)
		}
		return fmt.Sprintf("in(%s,%v,[%s])", exprKey(ex.Expr), ex.Not, strings.Join(parts, ","))
	case IsNullExpr:
		return fmt.Sprintf("isnull(%s,%v)", exprKey(ex.Expr), ex.Not)
	case BetweenExpr:
		return fmt.Sprintf("between(%s,%s,%s,%v)", exprKey(ex.Expr), exprKey(ex.Lo), exprKey(ex.Hi), ex.Not)
	default:
		return fmt.Sprintf("%#v", e)
	}
}

// collectAggregates finds every distinct aggregate FuncCall in the
// expression trees, keyed by exprKey.
func collectAggregates(exprs []Expr) []FuncCall {
	seen := map[string]bool{}
	var out []FuncCall
	var walk func(Expr)
	walk = func(e Expr) {
		switch ex := e.(type) {
		case FuncCall:
			if aggregateNames[ex.Name] {
				k := exprKey(ex)
				if !seen[k] {
					seen[k] = true
					out = append(out, ex)
				}
				return // aggregates don't nest
			}
			for _, a := range ex.Args {
				walk(a)
			}
		case BinaryExpr:
			walk(ex.Left)
			walk(ex.Right)
		case UnaryExpr:
			walk(ex.Expr)
		case InExpr:
			walk(ex.Expr)
			for _, a := range ex.List {
				walk(a)
			}
		case IsNullExpr:
			walk(ex.Expr)
		case BetweenExpr:
			walk(ex.Expr)
			walk(ex.Lo)
			walk(ex.Hi)
		}
	}
	for _, e := range exprs {
		if e != nil {
			walk(e)
		}
	}
	sort.Slice(out, func(i, j int) bool { return exprKey(out[i]) < exprKey(out[j]) })
	return out
}
