// Package lang implements NFC, the small C-like NF language this repo uses
// in place of Click/C++ elements. NFC deliberately mirrors the restricted C
// dialects of baremetal SmartNICs (Micro-C): unsigned integer types only,
// no dynamic allocation, statically sized stateful structures, and a
// framework API exposed as intrinsics (the analog of Click's Packet /
// HashMap API that the paper reverse-ports, §3.3), whose signatures are
// ir.APIs.
package lang

import "clara/internal/ir"

// File is a parsed NFC compilation unit (one NF element).
type File struct {
	Name    string
	Globals []*GlobalDecl
	Funcs   []*FuncDecl
}

// GlobalDecl declares a stateful NF variable.
type GlobalDecl struct {
	Name string
	Kind ir.GlobalKind
	Elem ir.Type // scalar/array element, map value
	Key  ir.Type // map key
	Len  int     // array length / map capacity
	Line int
	Col  int
}

// FuncDecl declares a function. The packet handler is named "handle".
type FuncDecl struct {
	Name   string
	Params []ir.Param
	Ret    ir.Type
	Body   *BlockStmt
	Line   int
	Col    int
}

// Stmt is a statement node.
type Stmt interface{ stmtNode() }

// BlockStmt is a { ... } statement list.
type BlockStmt struct{ List []Stmt }

// VarDecl declares (and optionally initializes) a local variable.
type VarDecl struct {
	Name string
	Ty   ir.Type
	Init Expr // may be nil
	Line int
	Col  int
}

// AssignStmt assigns to a local variable, global scalar, or array element.
// Op is "" for plain assignment or the compound operator ("+=", ...).
type AssignStmt struct {
	Target *LValue
	Op     string
	Value  Expr
	Line   int
	Col    int
}

// LValue is an assignable location.
type LValue struct {
	Name  string
	Index Expr // non-nil for array element
	Line  int
	Col   int
}

// IfStmt is if/else.
type IfStmt struct {
	Cond Expr
	Then *BlockStmt
	Else *BlockStmt // may be nil
	Line int
	Col  int
}

// WhileStmt is a while loop.
type WhileStmt struct {
	Cond Expr
	Body *BlockStmt
	Line int
	Col  int
}

// ForStmt is a C-style for loop.
type ForStmt struct {
	Init Stmt // VarDecl or AssignStmt, may be nil
	Cond Expr // may be nil (infinite)
	Post Stmt // AssignStmt, may be nil
	Body *BlockStmt
	Line int
	Col  int
}

// ReturnStmt returns from the current function.
type ReturnStmt struct {
	Value Expr // may be nil
	Line  int
	Col   int
}

// BreakStmt exits the innermost loop.
type BreakStmt struct{ Line, Col int }

// ContinueStmt continues the innermost loop.
type ContinueStmt struct{ Line, Col int }

// ExprStmt evaluates an expression for its side effects (calls).
type ExprStmt struct {
	X    Expr
	Line int
	Col  int
}

func (*BlockStmt) stmtNode()    {}
func (*VarDecl) stmtNode()      {}
func (*AssignStmt) stmtNode()   {}
func (*IfStmt) stmtNode()       {}
func (*WhileStmt) stmtNode()    {}
func (*ForStmt) stmtNode()      {}
func (*ReturnStmt) stmtNode()   {}
func (*BreakStmt) stmtNode()    {}
func (*ContinueStmt) stmtNode() {}
func (*ExprStmt) stmtNode()     {}

// Expr is an expression node.
type Expr interface{ exprNode() }

// IntLit is an integer literal.
type IntLit struct {
	Val  uint64
	Line int
	Col  int
}

// BoolLit is true/false.
type BoolLit struct {
	Val  bool
	Line int
	Col  int
}

// Ident references a local variable, parameter, or global scalar.
type Ident struct {
	Name string
	Line int
	Col  int
}

// IndexExpr is array indexing: name[idx].
type IndexExpr struct {
	Name  string
	Index Expr
	Line  int
	Col   int
}

// CallExpr calls an intrinsic or a user function.
type CallExpr struct {
	Name string
	Args []Expr
	Line int
	Col  int
}

// CastExpr is an explicit conversion: u32(expr).
type CastExpr struct {
	Ty   ir.Type
	X    Expr
	Line int
	Col  int
}

// UnaryExpr is !x, ~x, or -x.
type UnaryExpr struct {
	Op   string
	X    Expr
	Line int
	Col  int
}

// BinaryExpr is a binary operation.
type BinaryExpr struct {
	Op   string
	X, Y Expr
	Line int
	Col  int
}

func (*IntLit) exprNode()     {}
func (*BoolLit) exprNode()    {}
func (*Ident) exprNode()      {}
func (*IndexExpr) exprNode()  {}
func (*CallExpr) exprNode()   {}
func (*CastExpr) exprNode()   {}
func (*UnaryExpr) exprNode()  {}
func (*BinaryExpr) exprNode() {}
