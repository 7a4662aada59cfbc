package isa

import "math"

// aluOp is the function form of one ALU operation: a branch-free function
// of the source values a (Rs), b (Rt), c (Rd before the instruction; only
// FMA reads it) and the immediate.
type aluOp func(a, b, c, imm int64) int64

// aluFns holds one function per ALU op, indexed by Op; EvalALU dispatches
// through it. Each entry computes exactly what the corresponding
// evalALUSwitch case computes — the equivalence is enforced bit-for-bit by
// TestEvalALUMatchesSwitch.
var aluFns = [numOps]aluOp{
	ADD: func(a, b, _, _ int64) int64 { return a + b },
	SUB: func(a, b, _, _ int64) int64 { return a - b },
	MUL: func(a, b, _, _ int64) int64 { return a * b },
	DIV: func(a, b, _, _ int64) int64 {
		if b == 0 {
			return 0
		}
		return a / b
	},
	REM: func(a, b, _, _ int64) int64 {
		if b == 0 {
			return 0
		}
		return a % b
	},
	AND: func(a, b, _, _ int64) int64 { return a & b },
	OR:  func(a, b, _, _ int64) int64 { return a | b },
	XOR: func(a, b, _, _ int64) int64 { return a ^ b },
	SHL: func(a, b, _, _ int64) int64 { return a << (uint64(b) & 63) },
	SHR: func(a, b, _, _ int64) int64 { return int64(uint64(a) >> (uint64(b) & 63)) },
	SLT: func(a, b, _, _ int64) int64 {
		if a < b {
			return 1
		}
		return 0
	},
	ADDI: func(a, _, _, imm int64) int64 { return a + imm },
	MULI: func(a, _, _, imm int64) int64 { return a * imm },
	ANDI: func(a, _, _, imm int64) int64 { return a & imm },
	ORI:  func(a, _, _, imm int64) int64 { return a | imm },
	XORI: func(a, _, _, imm int64) int64 { return a ^ imm },
	SHLI: func(a, _, _, imm int64) int64 { return a << (uint64(imm) & 63) },
	SHRI: func(a, _, _, imm int64) int64 { return int64(uint64(a) >> (uint64(imm) & 63)) },
	LUI:  func(_, _, _, imm int64) int64 { return imm << 32 },
	LI:   func(_, _, _, imm int64) int64 { return imm },
	MOV:  func(a, _, _, _ int64) int64 { return a },
	FADD: func(a, b, _, _ int64) int64 { return f2i(i2f(a) + i2f(b)) },
	FSUB: func(a, b, _, _ int64) int64 { return f2i(i2f(a) - i2f(b)) },
	FMUL: func(a, b, _, _ int64) int64 { return f2i(i2f(a) * i2f(b)) },
	FDIV: func(a, b, _, _ int64) int64 { return f2i(i2f(a) / i2f(b)) },
	FNEG: func(a, _, _, _ int64) int64 { return f2i(-i2f(a)) },
	FABS: func(a, _, _, _ int64) int64 { return f2i(math.Abs(i2f(a))) },
	FSQRT: func(a, _, _, _ int64) int64 {
		return f2i(math.Sqrt(i2f(a)))
	},
	FMA:  func(a, b, c, _ int64) int64 { return f2i(i2f(a)*i2f(b) + i2f(c)) },
	CVTF: func(a, _, _, _ int64) int64 { return f2i(float64(a)) },
	CVTI: func(a, _, _, _ int64) int64 { return int64(i2f(a)) },
	FLT: func(a, b, _, _ int64) int64 {
		if i2f(a) < i2f(b) {
			return 1
		}
		return 0
	},
}
