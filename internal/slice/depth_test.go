package slice

import (
	"math/rand"
	"slices"
	"testing"
	"unsafe"

	"acr/internal/isa"
)

// depthBudgets are the op budgets the depth-bound tests compile at: the
// paper's thresholds (5, 10), the edges 0/1, a budget equal to the boundary
// chain below (21), the default test budget (64), the largest size a
// compilable recipe can reach (254), and a negative budget, which still
// admits leaf recipes.
var depthBudgets = []int{-1, 0, 1, 5, 10, 21, 64, 254}

// compileFullWalk is CompileInto without the depth bound: the full
// post-order walk every compile took before the bound existed, kept as the
// reference the pruned compile must agree with.
func compileFullWalk(t *Tracker, core int, r Ref, maxOps int) (*Compiled, error) {
	s := &t.shards[core]
	if s.at(r).kind == kindOpaque {
		return nil, errSliceBudget
	}
	c := &Compiled{}
	t.cTab.begin()
	if !s.emit(&t.cTab, r, c, maxOps) {
		return nil, errSliceBudget
	}
	n := int32(len(c.Inputs))
	fix := func(v int32) int32 {
		switch {
		case v == unusedEnc:
			return -1
		case v < 0:
			return n + ^v
		default:
			return v
		}
	}
	for j := range c.Ops {
		c.Ops[j].A = fix(c.Ops[j].A)
		c.Ops[j].B = fix(c.Ops[j].B)
		c.Ops[j].C = fix(c.Ops[j].C)
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return c, nil
}

// chainDepth recomputes the longest op chain below r from the arena, the
// value OnALU must have stored in the node's depth field.
func chainDepth(s *shard, r Ref, memo map[Ref]uint8) uint8 {
	n := s.at(r)
	if n.kind != kindOp {
		return 0
	}
	if d, ok := memo[r]; ok {
		return d
	}
	var d uint8
	for _, ch := range [3]Ref{n.a, n.b, n.c} {
		if ch != noRef {
			d = max(d, chainDepth(s, ch, memo))
		}
	}
	memo[r] = d + 1
	return d + 1
}

// depthTally counts how the compiles of a comparison run were decided.
type depthTally struct {
	accepted     int // both compiles produced a Slice
	depthRejects int // rejected by the depth bound alone
	walkRejects  int // passed the depth bound, rejected by the walk
}

// checkAgainstFullWalk compiles every register recipe of core at every
// budget, once through CompileInto (alternately into a fresh shell and a
// recycled one holding stale contents) and once through the full walk, and
// fails unless both give the same verdict, Inputs and Ops. It also checks
// each recipe's stored depth against a recomputation from the arena.
func checkAgainstFullWalk(t testing.TB, tr *Tracker, core int, tally *depthTally) {
	t.Helper()
	s := &tr.shards[core]
	memo := map[Ref]uint8{}
	shell := &Compiled{Inputs: []int64{-1, -2}, Ops: []COp{{Op: isa.ADD}}}
	for reg := isa.Reg(0); reg < isa.NumRegs; reg++ {
		r := tr.Recipe(core, reg)
		if got, want := s.at(r).depth, chainDepth(s, r, memo); got != want {
			t.Fatalf("core %d r%d: stored depth %d, longest op chain %d", core, reg, got, want)
		}
		for i, maxOps := range depthBudgets {
			var into *Compiled
			if i%2 == 1 {
				into = shell
			}
			got, gotErr := tr.CompileInto(core, into, r, maxOps)
			want, wantErr := compileFullWalk(tr, core, r, maxOps)
			if gotErr != wantErr {
				t.Fatalf("core %d r%d maxOps %d: pruned compile error %v, full walk %v",
					core, reg, maxOps, gotErr, wantErr)
			}
			if gotErr != nil {
				if s.at(r).kind == kindOp && int(s.at(r).depth) > maxOps {
					tally.depthRejects++
				} else {
					tally.walkRejects++
				}
				continue
			}
			tally.accepted++
			if !slices.Equal(got.Inputs, want.Inputs) || !slices.Equal(got.Ops, want.Ops) {
				t.Fatalf("core %d r%d maxOps %d: pruned compile\n%s\nfull walk\n%s",
					core, reg, maxOps, got, want)
			}
		}
	}
}

// TestCompileDepthBoundMatchesFullWalk drives random ALU and load traffic
// over four cores through arena compactions and context-switch resets, and
// checks after every phase that the depth-bounded CompileInto agrees with
// the full walk on every register and budget. The depth bound may only
// skip walks whose answer is already a rejection.
func TestCompileDepthBoundMatchesFullWalk(t *testing.T) {
	const nCores = 4
	aluOps := []isa.Op{isa.ADD, isa.SUB, isa.MUL, isa.AND, isa.OR, isa.XOR,
		isa.SLT, isa.ADDI, isa.MULI, isa.SHLI, isa.SHRI, isa.LI, isa.MOV,
		isa.FADD, isa.FMUL, isa.FSUB, isa.FMA, isa.CVTF}
	rng := rand.New(rand.NewSource(13))
	tr := NewTracker(nCores)
	for i := range tr.shards {
		tr.shards[i].compactLimit = 512
	}
	var regs [nCores][isa.NumRegs]int64
	var tally depthTally
	for phase := 0; phase < 30; phase++ {
		for step := 0; step < 300; step++ {
			core := rng.Intn(nCores)
			if rng.Intn(6) == 0 {
				rd := isa.Reg(rng.Intn(31) + 1)
				regs[core][rd] = rng.Int63()
				tr.OnLoad(core, rd, regs[core][rd])
				continue
			}
			tr.OnALU(core, isa.Instr{
				Op:  aluOps[rng.Intn(len(aluOps))],
				Rd:  isa.Reg(rng.Intn(31) + 1),
				Rs:  isa.Reg(rng.Intn(32)),
				Rt:  isa.Reg(rng.Intn(32)),
				Imm: rng.Int63n(100) - 50,
			})
		}
		if phase%7 == 3 {
			core := rng.Intn(nCores)
			tr.ResetCore(core, &regs[core])
		}
		for core := 0; core < nCores; core++ {
			checkAgainstFullWalk(t, tr, core, &tally)
		}
	}
	// The traffic must reach all three outcomes, or the comparison proves
	// nothing about the bound.
	if tally.accepted == 0 || tally.depthRejects == 0 || tally.walkRejects == 0 {
		t.Fatalf("outcomes not all exercised: %+v", tally)
	}
}

// TestCompileDepthBoundBoundaries pins the bound at its edges: a 21-op
// chain fits a budget of exactly 21 and no less, and a doubling DAG, whose
// unrolled tree is far larger than its distinct op count, compiles at a
// budget equal to its depth — so the bound must be the chain depth, never
// the tree size.
func TestCompileDepthBoundBoundaries(t *testing.T) {
	tr := NewTracker(1)
	tr.OnLoad(0, 1, 3)
	for i := 0; i < 21; i++ {
		tr.OnALU(0, isa.Instr{Op: isa.ADDI, Rd: 1, Rs: 1, Imm: 1})
	}
	chain := tr.Recipe(0, 1)
	if d := tr.shards[0].at(chain).depth; d != 21 {
		t.Fatalf("21-op chain: depth %d", d)
	}
	if _, err := tr.CompileInto(0, nil, chain, 20); err != errSliceBudget {
		t.Errorf("21-op chain at maxOps 20: err %v, want the budget rejection", err)
	}
	if c, err := tr.CompileInto(0, nil, chain, 21); err != nil || c.Len() != 21 || c.Eval(nil) != 24 {
		t.Errorf("21-op chain at maxOps 21: %v, %v", c, err)
	}

	tr.OnLoad(0, 2, 5)
	for i := 0; i < 6; i++ {
		tr.OnALU(0, isa.Instr{Op: isa.ADD, Rd: 2, Rs: 2, Rt: 2})
	}
	dag := tr.Recipe(0, 2)
	if n := tr.shards[0].at(dag); n.depth != 6 || tr.Size(0, dag) != 63 {
		t.Fatalf("doubling DAG: depth %d size %d, want 6 and 63", n.depth, tr.Size(0, dag))
	}
	if c, err := tr.CompileInto(0, nil, dag, 6); err != nil || c.Len() != 6 || c.Eval(nil) != 5<<6 {
		t.Errorf("doubling DAG at maxOps 6: %v, %v", c, err)
	}
	if _, err := tr.CompileInto(0, nil, dag, 5); err != errSliceBudget {
		t.Errorf("doubling DAG at maxOps 5: err %v, want the budget rejection", err)
	}
	var tally depthTally
	checkAgainstFullWalk(t, tr, 0, &tally)
}

// TestNodeLayout guards the arena node at 32 bytes: the depth field must
// live in padding, not grow the arena or compaction's copy traffic.
func TestNodeLayout(t *testing.T) {
	if got := unsafe.Sizeof(node{}); got != 32 {
		t.Fatalf("unsafe.Sizeof(node{}) = %d, want 32", got)
	}
}

// fuzzOps are the ALU ops a fuzz input can select; the two selectors past
// the end mean a load and a core reset.
var fuzzOps = []isa.Op{isa.ADD, isa.SUB, isa.MUL, isa.XOR, isa.ADDI, isa.SHLI,
	isa.LI, isa.MOV, isa.FADD, isa.FMUL, isa.FMA, isa.FNEG}

var (
	fuzzLoad  = len(fuzzOps)
	fuzzReset = len(fuzzOps) + 1
)

// fuzzInstr encodes one fuzz instruction as the four bytes
// FuzzCompileDepthBound decodes: selector, destination, sources, immediate.
func fuzzInstr(sel int, rd, rs, rt isa.Reg, imm int8) []byte {
	return []byte{byte(sel), byte(rd - 1), byte(rs) | byte(rt)<<3, byte(imm)}
}

// FuzzCompileDepthBound decodes the input into a single-core instruction
// sequence over r0–r7 (four bytes per instruction, at most 512) run through
// a tracker with a tiny compaction limit, and asserts every 64 instructions
// and at the end that the depth-bounded compile agrees with the full walk
// on every register and budget.
func FuzzCompileDepthBound(f *testing.F) {
	op := func(o isa.Op) int { return slices.Index(fuzzOps, o) }
	// A 12-op ADDI chain: rejected by depth at budgets below 12.
	chain := [][]byte{fuzzInstr(fuzzLoad, 1, 0, 0, 9)}
	for i := 0; i < 12; i++ {
		chain = append(chain, fuzzInstr(op(isa.ADDI), 1, 1, 0, 1))
	}
	f.Add(slices.Concat(chain...))
	// Diamonds: two shallow branches rejoining, repeated, so the distinct
	// op count outgrows the depth and the walk, not the bound, rejects.
	diamond := [][]byte{fuzzInstr(fuzzLoad, 1, 0, 0, 7)}
	for i := 0; i < 5; i++ {
		diamond = append(diamond,
			fuzzInstr(op(isa.ADD), 2, 1, 1, 0),
			fuzzInstr(op(isa.MUL), 3, 1, 1, 0),
			fuzzInstr(op(isa.SUB), 1, 2, 3, 0))
	}
	f.Add(slices.Concat(diamond...))
	// FMA accumulation: three-operand nodes reading their own destination.
	fma := [][]byte{fuzzInstr(fuzzLoad, 4, 0, 0, 2), fuzzInstr(fuzzLoad, 5, 0, 0, 3)}
	for i := 0; i < 8; i++ {
		fma = append(fma, fuzzInstr(op(isa.FMA), 6, 4, 5, 0), fuzzInstr(op(isa.FNEG), 4, 6, 0, 0))
	}
	fma = append(fma, fuzzInstr(fuzzReset, 1, 0, 0, 0), fuzzInstr(op(isa.FMA), 6, 6, 6, 0))
	f.Add(slices.Concat(fma...))

	f.Fuzz(func(t *testing.T, data []byte) {
		tr := NewTracker(1)
		tr.shards[0].compactLimit = 64
		var regs [isa.NumRegs]int64
		var tally depthTally
		for i := 0; i+4 <= len(data) && i < 4*512; i += 4 {
			sel := int(data[i]) % (len(fuzzOps) + 2)
			rd := isa.Reg(data[i+1]%7 + 1)
			rs, rt := isa.Reg(data[i+2]&7), isa.Reg(data[i+2]>>3&7)
			imm := int64(int8(data[i+3]))
			switch {
			case sel == fuzzLoad:
				regs[rd] = imm
				tr.OnLoad(0, rd, imm)
			case sel == fuzzReset:
				tr.ResetCore(0, &regs)
			default:
				tr.OnALU(0, isa.Instr{Op: fuzzOps[sel], Rd: rd, Rs: rs, Rt: rt, Imm: imm})
			}
			if i%(4*64) == 4*63 {
				checkAgainstFullWalk(t, tr, 0, &tally)
			}
		}
		checkAgainstFullWalk(t, tr, 0, &tally)
	})
}
