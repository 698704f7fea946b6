package dualpar_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// settableValues is the number of exported fields in the configuration
// structs knobStructs finds. A change that adds a setting raises it and
// says why; a change that turns a setting no caller varies into a constant
// lowers it.
const settableValues = 54

// knobPackages are the packages whose configuration surface is counted.
var knobPackages = []string{
	"core", "cluster", "pfs", "mpiio", "fs", "memcache", "disk", "burst", "tenant",
	"iosched", "netsim",
}

// knobStructs parses the non-test Go files of each package and returns the
// exported fields of its settable structs, keyed "pkg.Type": exported
// structs named *Config or *Params and, in iosched, the elevators (the
// exported structs with a Next method).
func knobStructs(t *testing.T) map[string][]string {
	t.Helper()
	out := make(map[string][]string)
	fset := token.NewFileSet()
	for _, pkg := range knobPackages {
		files, err := filepath.Glob(filepath.Join("internal", pkg, "*.go"))
		if err != nil || len(files) == 0 {
			t.Fatalf("package %s: no files (%v)", pkg, err)
		}
		structs := make(map[string]*ast.StructType)
		elevators := make(map[string]bool)
		for _, path := range files {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						if ts, ok := spec.(*ast.TypeSpec); ok && ts.Name.IsExported() {
							if st, ok := ts.Type.(*ast.StructType); ok {
								structs[ts.Name.Name] = st
							}
						}
					}
				case *ast.FuncDecl:
					if d.Recv != nil && d.Name.Name == "Next" {
						typ := d.Recv.List[0].Type
						if star, ok := typ.(*ast.StarExpr); ok {
							typ = star.X
						}
						if id, ok := typ.(*ast.Ident); ok {
							elevators[id.Name] = true
						}
					}
				}
			}
		}
		for name, st := range structs {
			knob := strings.HasSuffix(name, "Config") || strings.HasSuffix(name, "Params") ||
				(pkg == "iosched" && elevators[name])
			if !knob {
				continue
			}
			var fields []string
			for _, f := range st.Fields.List {
				if len(f.Names) == 0 { // embedded
					if id, ok := f.Type.(*ast.Ident); ok && id.IsExported() {
						fields = append(fields, id.Name)
					}
					continue
				}
				for _, n := range f.Names {
					if n.IsExported() {
						fields = append(fields, n.Name)
					}
				}
			}
			out[pkg+"."+name] = fields
		}
	}
	return out
}

// TestSettableValueBudget pins the count of settable configuration values,
// so adding an option, or keeping one that no caller varies, is a visible
// decision rather than drift.
func TestSettableValueBudget(t *testing.T) {
	structs := knobStructs(t)
	total := 0
	for _, fields := range structs {
		total += len(fields)
	}
	if total == settableValues {
		return
	}
	names := make([]string, 0, len(structs))
	for name := range structs {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, name := range names {
		fmt.Fprintf(&b, "  %-22s %2d  %s\n", name, len(structs[name]), strings.Join(structs[name], " "))
	}
	t.Fatalf("%d settable values, budget %d:\n%s", total, settableValues, b.String())
}
