// Command minicc is the standalone Mini-C compiler driver: it parses,
// checks, lowers and optionally optimizes and executes a Mini-C program.
//
//	minicc prog.mc                         # compile + verify (reports stats)
//	minicc -run -data "1,2,3" prog.mc      # execute; prints out() stream + return
//	minicc -emit-ir prog.mc                # dump the lowered IR
//	minicc -opt -emit-ir prog.mc           # dump optimized IR
//	minicc -dot main prog.mc               # CFG of a function in Graphviz dot
//
// The entry function must be main with signature (), (n) or (input[], n)
// when -run is used.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"branchalign/internal/interp"
	"branchalign/internal/ir"
	"branchalign/internal/lower"
	"branchalign/internal/minic"
	"branchalign/internal/opt"
)

func main() {
	var (
		run      = flag.Bool("run", false, "execute the program after compiling")
		emitIR   = flag.Bool("emit-ir", false, "print the lowered IR")
		dotFunc  = flag.String("dot", "", "print the named function's CFG as Graphviz dot")
		optimize = flag.Bool("opt", false, "run CFG cleanup passes")
		data     = flag.String("data", "", "comma-separated ints for the entry array input (with -run)")
		scalarN  = flag.Int64("n", -1, "entry scalar argument (default: array length)")
		maxSteps = flag.Int64("max-steps", 1<<31, "interpreter instruction budget")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: minicc [flags] file.mc")
		flag.PrintDefaults()
		os.Exit(2)
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	mod, err := compileSource(string(src), *optimize)
	if err != nil {
		fatal(err)
	}
	nBlocks, nInstrs := moduleStats(mod)
	fmt.Printf("compiled %s: %d functions, %d blocks, %d instructions\n",
		flag.Arg(0), len(mod.Funcs), nBlocks, nInstrs)

	if *emitIR {
		fmt.Print(mod.String())
	}
	if *dotFunc != "" {
		fi := mod.FuncIndex(*dotFunc)
		if fi < 0 {
			fatal(fmt.Errorf("no function %q", *dotFunc))
		}
		fmt.Print(mod.Funcs[fi].Dot(nil))
	}
	if !*run {
		return
	}
	inputs, err := bindInputs(mod, *data, *scalarN)
	if err != nil {
		fatal(err)
	}
	res, err := interp.Run(mod, inputs, interp.Options{MaxSteps: *maxSteps})
	if err != nil {
		fatal(err)
	}
	for _, v := range res.Output {
		fmt.Println(v)
	}
	fmt.Printf("return %d (%d instructions, %d branches)\n", res.Ret, res.Steps, res.DynBranches())
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "minicc:", err)
	os.Exit(1)
}

// compileSource runs the full front end on source text.
func compileSource(src string, optimize bool) (*ir.Module, error) {
	prog, err := minic.Parse(src)
	if err != nil {
		return nil, err
	}
	info, err := minic.Check(prog)
	if err != nil {
		return nil, err
	}
	mod, err := lower.Program(info)
	if err != nil {
		return nil, err
	}
	if optimize {
		opt.Module(mod)
	}
	return mod, nil
}

// moduleStats counts blocks and instructions (terminators included).
func moduleStats(mod *ir.Module) (blocks, instrs int) {
	for _, f := range mod.Funcs {
		blocks += len(f.Blocks)
		for _, b := range f.Blocks {
			instrs += len(b.Instrs) + 1
		}
	}
	return blocks, instrs
}

// bindInputs adapts -data/-n to the entry function's signature.
func bindInputs(mod *ir.Module, data string, scalarN int64) ([]interp.Input, error) {
	var arr []int64
	if data != "" {
		for _, part := range strings.Split(data, ",") {
			v, err := strconv.ParseInt(strings.TrimSpace(part), 0, 64)
			if err != nil {
				return nil, fmt.Errorf("bad -data element %q: %w", part, err)
			}
			arr = append(arr, v)
		}
	}
	n := scalarN
	if n < 0 {
		n = int64(len(arr))
	}
	return interp.EntryInputs(mod, arr, n)
}
