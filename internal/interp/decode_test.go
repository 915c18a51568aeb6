package interp

import (
	"fmt"
	"strings"
	"testing"
)

// listing prints a decoded function one instruction per line. Operands
// print as rN for a register slot and #V for a constant-pool slot holding
// V; [cN] is a counter index.
func listing(f *fn) string {
	var b strings.Builder
	fmt.Fprintf(&b, "func %s: %d regs, %d scalar params, consts %v, %d arrays, locals %v\n",
		f.name, f.nregs, f.scalars, f.consts, f.arrays, f.locals)
	op := func(slot int32) string {
		if int(slot) >= f.nregs {
			return fmt.Sprintf("#%d", f.consts[int(slot)-f.nregs])
		}
		return fmt.Sprintf("r%d", slot)
	}
	bin := map[opcode]string{
		opAdd: "add", opSub: "sub", opMul: "mul", opDiv: "div", opRem: "rem",
		opAnd: "and", opOr: "or", opXor: "xor", opShl: "shl", opShr: "shr",
		opEq: "eq", opNe: "ne", opLt: "lt", opLe: "le", opGt: "gt", opGe: "ge",
	}
	fused := map[opcode]string{opEqBr: "eq", opNeBr: "ne", opLtBr: "lt", opGeBr: "ge"}
	for bi, blk := range f.blocks {
		end := len(f.code)
		if bi+1 < len(f.blocks) {
			end = int(f.blocks[bi+1].start)
		}
		fmt.Fprintf(&b, "b%d: %d steps, [c%d] entries\n", bi, blk.steps, bi)
		for pc := int(blk.start); pc < end; pc++ {
			in := f.code[pc]
			fmt.Fprintf(&b, "  %2d  ", pc)
			switch {
			case in.op == opMove:
				fmt.Fprintf(&b, "r%d = %s", in.dst, op(in.a))
			case bin[in.op] != "":
				fmt.Fprintf(&b, "r%d = %s %s, %s", in.dst, bin[in.op], op(in.a), op(in.b))
			case in.op == opNeg || in.op == opNot:
				fmt.Fprintf(&b, "r%d = %s %s", in.dst, map[opcode]string{opNeg: "neg", opNot: "not"}[in.op], op(in.a))
			case in.op == opLoadL:
				fmt.Fprintf(&b, "r%d = a%d[%s]", in.dst, in.x, op(in.a))
			case in.op == opLoadG:
				fmt.Fprintf(&b, "r%d = g%d[%s]", in.dst, in.x, op(in.a))
			case in.op == opStoreL:
				fmt.Fprintf(&b, "a%d[%s] = %s", in.x, op(in.a), op(in.b))
			case in.op == opStoreG:
				fmt.Fprintf(&b, "g%d[%s] = %s", in.x, op(in.a), op(in.b))
			case in.op == opGLoad:
				fmt.Fprintf(&b, "r%d = gs%d", in.dst, in.x)
			case in.op == opGStore:
				fmt.Fprintf(&b, "gs%d = %s", in.x, op(in.a))
			case in.op == opCall:
				var args []string
				for _, a := range f.args[in.a : in.a+in.b] {
					switch a.kind {
					case argScalar:
						args = append(args, fmt.Sprintf("%s->r%d", op(a.src), a.dst))
					case argLocal:
						args = append(args, fmt.Sprintf("a%d->a%d", a.src, a.dst))
					case argGlobal:
						args = append(args, fmt.Sprintf("g%d->a%d", a.src, a.dst))
					}
				}
				fmt.Fprintf(&b, "r%d = call f%d(%s) [c%d]", in.dst, in.x, strings.Join(args, ", "), in.ctr)
			case in.op == opOut:
				fmt.Fprintf(&b, "out %s", op(in.a))
			case in.op == opBr:
				fmt.Fprintf(&b, "br b%d [c%d]", in.x, in.ctr)
			case in.op == opCondBr:
				fmt.Fprintf(&b, "condbr %s, b%d, b%d [c%d]", op(in.a), in.x, in.y, in.ctr)
			case fused[in.op] != "":
				fmt.Fprintf(&b, "r%d = %s %s, %s; condbr b%d, b%d [c%d]", in.dst, fused[in.op], op(in.a), op(in.b), in.x, in.y, in.ctr)
			case in.op == opSwitch:
				var cases []string
				for _, c := range f.cases[in.x : in.x+in.b] {
					cases = append(cases, fmt.Sprintf("%d:b%d", c.val, c.block))
				}
				fmt.Fprintf(&b, "switch %s [%s] default b%d [c%d]", op(in.a), strings.Join(cases, " "), in.y, in.ctr)
			case in.op == opRet:
				fmt.Fprintf(&b, "ret %s", op(in.a))
			default:
				fmt.Fprintf(&b, "trap %q", f.traps[in.x])
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// TestDecodeListing pins the decoded form of two small functions: one
// with a switch and a call, one with local, parameter and global array
// accesses behind a compare fused into its branch.
func TestDecodeListing(t *testing.T) {
	mod := compile(t, `
global ga[4];
func helper(x) { return x + 1; }
func classify(x) {
	switch (x) {
	case 1: return helper(x);
	case 5: return 7;
	default: return 0;
	}
	return -1;
}
func fill(a[], n) {
	var loc[3];
	if (n < 3) {
		loc[n] = a[n] + ga[n];
	}
	ga[0] = loc[n % 3];
	return loc[1];
}
func main(n) { return 0; }
`)
	fns := decode(mod)
	for _, c := range []struct{ name, want string }{
		{"classify", `
func classify: 3 regs, 1 scalar params, consts [1 7 0], 0 arrays, locals []
b0: 1 steps, [c0] entries
   0  switch r0 [1:b2 5:b3] default b4 [c5]
b1: 2 steps, [c1] entries
   1  r2 = neg #1
   2  ret r2
b2: 2 steps, [c2] entries
   3  r1 = call f0(r0->r0) [c8]
   4  ret r1
b3: 1 steps, [c3] entries
   5  ret #7
b4: 1 steps, [c4] entries
   6  ret #0
`},
		{"fill", `
func fill: 8 regs, 1 scalar params, consts [3 0 1], 2 arrays, locals [3]
b0: 2 steps, [c0] entries
   0  r1 = lt r0, #3; condbr b1, b2 [c3]
b1: 5 steps, [c1] entries
   1  r2 = a0[r0]
   2  r3 = g0[r0]
   3  r4 = add r2, r3
   4  a1[r0] = r4
   5  br b2 [c5]
b2: 5 steps, [c2] entries
   6  r5 = rem r0, #3
   7  r6 = a1[r5]
   8  g0[#0] = r6
   9  r7 = a1[#1]
  10  ret r7
`},
	} {
		fi := mod.FuncIndex(c.name)
		if got := listing(&fns[fi]); got != c.want[1:] {
			t.Errorf("decoded %s:\n%s\nwant:\n%s", c.name, got, c.want[1:])
		}
	}
}
