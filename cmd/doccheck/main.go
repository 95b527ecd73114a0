// Command doccheck enforces godoc coverage on the packages that form the
// repo's public surface and control stack: every exported top-level symbol
// (and every exported field of an exported struct) must carry a doc
// comment. It is a build-tag-free stdlib tool so CI can run it without
// fetching a linter.
//
// Usage:
//
//	doccheck [dir ...]    (default: the repo's documented surface)
//
// Exit status is 1 if any exported symbol is undocumented, with one
// file:line per finding.
package main

import (
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
)

// defaultDirs is the documented surface the repo commits to: the facade
// package plus the telemetry, elastic, observability and mbuf planes and
// the cycle protocol both substrates drive.
// Widen deliberately — a directory added here becomes an API-doc contract
// enforced by CI.
var defaultDirs = []string{".", "internal/telemetry", "internal/elastic", "internal/obsv", "internal/mbuf", "internal/cycle"}

func main() {
	flag.Parse()
	dirs := flag.Args()
	if len(dirs) == 0 {
		dirs = defaultDirs
	}
	bad := 0
	for _, dir := range dirs {
		bad += checkDir(dir)
	}
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "doccheck: %d undocumented exported symbol(s)\n", bad)
		os.Exit(1)
	}
}

// checkDir parses every non-test .go file in dir (no recursion — each
// checked package is named explicitly) and reports undocumented exported
// symbols.
func checkDir(dir string) int {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		fmt.Fprintf(os.Stderr, "doccheck: %s: %v\n", dir, err)
		return 1
	}
	bad := 0
	for _, pkg := range pkgs {
		for path, f := range pkg.Files {
			bad += checkFile(fset, filepath.ToSlash(path), f)
		}
	}
	return bad
}

// checkFile walks one file's top-level declarations. A grouped
// declaration's doc comment covers its specs (the idiom for const blocks
// of enum values); an exported spec is flagged only when neither it nor
// its group carries one.
func checkFile(fset *token.FileSet, path string, f *ast.File) int {
	bad := 0
	flag := func(pos token.Pos, kind, name string) {
		p := fset.Position(pos)
		fmt.Printf("%s:%d: exported %s %s has no doc comment\n", path, p.Line, kind, name)
		bad++
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Name.IsExported() && d.Doc == nil && exportedRecv(d) {
				flag(d.Pos(), "function", d.Name.Name)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if !s.Name.IsExported() {
						continue
					}
					if d.Doc == nil && s.Doc == nil {
						flag(s.Pos(), "type", s.Name.Name)
					}
					if st, ok := s.Type.(*ast.StructType); ok {
						bad += checkFields(fset, path, s.Name.Name, st)
					}
				case *ast.ValueSpec:
					for _, name := range s.Names {
						if name.IsExported() && d.Doc == nil && s.Doc == nil && s.Comment == nil {
							flag(name.Pos(), kindWord(d.Tok), name.Name)
						}
					}
				}
			}
		}
	}
	return bad
}

// checkFields flags exported struct fields with neither a doc comment nor
// a trailing line comment.
func checkFields(fset *token.FileSet, path, typeName string, st *ast.StructType) int {
	bad := 0
	for _, fld := range st.Fields.List {
		for _, name := range fld.Names {
			if name.IsExported() && fld.Doc == nil && fld.Comment == nil {
				p := fset.Position(name.Pos())
				fmt.Printf("%s:%d: exported field %s.%s has no doc comment\n", path, p.Line, typeName, name.Name)
				bad++
			}
		}
	}
	return bad
}

// exportedRecv reports whether a method's receiver type is exported (or
// the decl is a plain function): methods on unexported types are not part
// of the surface godoc renders.
func exportedRecv(d *ast.FuncDecl) bool {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return true
	}
	t := d.Recv.List[0].Type
	for {
		switch v := t.(type) {
		case *ast.StarExpr:
			t = v.X
		case *ast.IndexExpr: // generic receiver T[P]
			t = v.X
		case *ast.Ident:
			return v.IsExported()
		default:
			return true
		}
	}
}

// kindWord maps a GenDecl token to the word used in findings.
func kindWord(tok token.Token) string {
	if tok == token.CONST {
		return "const"
	}
	return "var"
}
