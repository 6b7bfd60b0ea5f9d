// Command doccheck is the docs-consistency gate CI runs alongside the
// linters. It fails (exit 1) when the documentation has drifted from the
// code in any of five ways:
//
//  1. CLI surface: every flag cmd/supertrain registers must be mentioned
//     in README.md (as "-name"), so a new training knob cannot ship
//     undocumented.
//  2. Godoc surface: every exported identifier in the audited packages
//     (the root facade, internal/act, internal/dp, internal/stv,
//     internal/iolane, internal/place, internal/obs) must carry a doc
//     comment, and each audited package must have a package comment —
//     staticcheck's ST1000/ST1020/ST1021-class checks, done with go/ast
//     alone so the gate runs offline. It is the only missing-doc gate CI
//     runs.
//  3. Experiment surface: every experiment id registered in
//     internal/experiments/registry.go must have a row in EXPERIMENTS.md
//     (as `id`), so the registry and its documentation cannot drift.
//  4. Example surface: every examples/<dir> program must be mentioned in
//     README.md (as examples/<dir>), so a new example cannot ship
//     outside the examples table; and every examples/<x> that README.md,
//     ARCHITECTURE.md, DESIGN.md or a string literal in an example
//     program names must exist, so a deleted example cannot leave a
//     pointer to itself behind.
//  5. Name surface: every backticked camelCase or PascalCase Go name in
//     README.md, ARCHITECTURE.md or DESIGN.md — bare, or qualified like
//     `pkg.Name` or `Type.Method` — must be an identifier in some .go
//     file of the module, so a renamed or deleted function, type or field
//     cannot stay named in the prose.
//
// Run from the repository root: go run ./cmd/doccheck
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/scanner"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// auditedPackages are the directories whose exported identifiers must
// all carry doc comments (the facade and the engine/store layers the
// documentation overhaul covers).
var auditedPackages = []string{".", "internal/act", "internal/dp", "internal/stv", "internal/iolane", "internal/place", "internal/obs"}

func main() {
	var problems []string
	problems = append(problems, checkFlags()...)
	problems = append(problems, checkExperiments()...)
	problems = append(problems, checkExamples()...)
	problems = append(problems, checkDocNames()...)
	for _, dir := range auditedPackages {
		problems = append(problems, checkDocs(dir)...)
	}
	if len(problems) > 0 {
		sort.Strings(problems)
		for _, p := range problems {
			fmt.Fprintln(os.Stderr, "doccheck:", p)
		}
		fmt.Fprintf(os.Stderr, "doccheck: %d problem(s)\n", len(problems))
		os.Exit(1)
	}
	fmt.Println("doccheck: ok")
}

// checkFlags extracts every flag name cmd/supertrain registers and
// verifies README.md mentions it as "-name".
func checkFlags() []string {
	const src = "cmd/supertrain/main.go"
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, src, nil, 0)
	if err != nil {
		return []string{fmt.Sprintf("parsing %s: %v", src, err)}
	}
	var names []string
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		pkg, ok := sel.X.(*ast.Ident)
		if !ok || pkg.Name != "flag" {
			return true
		}
		kind, arg := sel.Sel.Name, 0 // flag.Int("name", …)
		if k, ok := strings.CutSuffix(kind, "Var"); ok && len(call.Args) > 1 {
			kind, arg = k, 1 // flag.IntVar(&v, "name", …)
		}
		switch kind {
		case "Bool", "Duration", "Float64", "Int", "Int64", "String", "Uint", "Uint64":
		default:
			return true
		}
		lit, ok := call.Args[arg].(*ast.BasicLit)
		if !ok || lit.Kind != token.STRING {
			return true
		}
		name, err := strconv.Unquote(lit.Value)
		if err == nil {
			names = append(names, name)
		}
		return true
	})
	if len(names) == 0 {
		return []string{fmt.Sprintf("no flag registrations found in %s (parser drift?)", src)}
	}
	readme, err := os.ReadFile("README.md")
	if err != nil {
		return []string{fmt.Sprintf("reading README.md: %v", err)}
	}
	var out []string
	for _, n := range names {
		// Whole-token match: "-ranks" must not be satisfied by the
		// "-ranks" inside "-seq-ranks", nor "-offload" by
		// "-offload-dir", so the flag name may not be followed by
		// another name character.
		token := regexp.MustCompile(`-` + regexp.QuoteMeta(n) + `([^a-z0-9-]|$)`)
		if !token.Match(readme) {
			out = append(out, fmt.Sprintf("supertrain flag -%s is not documented in README.md", n))
		}
	}
	return out
}

// checkExperiments extracts every experiment id registered in the
// experiments registry map and verifies EXPERIMENTS.md documents it as a
// `id` row — the registry ↔ docs drift gate.
func checkExperiments() []string {
	const src = "internal/experiments/registry.go"
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, src, nil, 0)
	if err != nil {
		return []string{fmt.Sprintf("parsing %s: %v", src, err)}
	}
	var ids []string
	ast.Inspect(f, func(n ast.Node) bool {
		vs, ok := n.(*ast.ValueSpec)
		if !ok || len(vs.Names) == 0 || vs.Names[0].Name != "registry" {
			return true
		}
		for _, v := range vs.Values {
			lit, ok := v.(*ast.CompositeLit)
			if !ok {
				continue
			}
			for _, elt := range lit.Elts {
				kv, ok := elt.(*ast.KeyValueExpr)
				if !ok {
					continue
				}
				key, ok := kv.Key.(*ast.BasicLit)
				if !ok || key.Kind != token.STRING {
					continue
				}
				if id, err := strconv.Unquote(key.Value); err == nil {
					ids = append(ids, id)
				}
			}
		}
		return false
	})
	if len(ids) == 0 {
		return []string{fmt.Sprintf("no experiment registrations found in %s (parser drift?)", src)}
	}
	docs, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		return []string{fmt.Sprintf("reading EXPERIMENTS.md: %v", err)}
	}
	var out []string
	for _, id := range ids {
		if !strings.Contains(string(docs), "`"+id+"`") {
			out = append(out, fmt.Sprintf("experiment %q has no row in EXPERIMENTS.md", id))
		}
	}
	return out
}

// checkExamples lists every example program directory and verifies
// README.md mentions it as examples/<dir> — the examples ↔ docs drift
// gate.
func checkExamples() []string {
	entries, err := os.ReadDir("examples")
	if err != nil {
		return []string{fmt.Sprintf("reading examples/: %v", err)}
	}
	readme, err := os.ReadFile("README.md")
	if err != nil {
		return []string{fmt.Sprintf("reading README.md: %v", err)}
	}
	var out []string
	found := 0
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		found++
		// Whole-token match, like checkFlags: examples/mesh must not be
		// satisfied by examples/mesh_nvme.
		token := regexp.MustCompile(`examples/` + regexp.QuoteMeta(e.Name()) + `([^a-z0-9_-]|$)`)
		if !token.Match(readme) {
			out = append(out, fmt.Sprintf("example examples/%s is not documented in README.md", e.Name()))
		}
	}
	if found == 0 {
		out = append(out, "no example directories found under examples/ (layout drift?)")
	}
	return append(out, checkExampleRefs(entries)...)
}

// exampleRef matches a path naming one example directory.
var exampleRef = regexp.MustCompile(`examples/([A-Za-z0-9_-]+)`)

// checkExampleRefs reports every examples/<x> named by the top-level docs
// or by a string literal in an example program (text it prints) for which
// examples/ has no directory <x>.
func checkExampleRefs(entries []os.DirEntry) []string {
	have := map[string]bool{}
	for _, e := range entries {
		have[e.Name()] = e.IsDir()
	}
	var out []string
	refs := func(where, text string) {
		for _, m := range exampleRef.FindAllStringSubmatch(text, -1) {
			if !have[m[1]] {
				out = append(out, fmt.Sprintf("%s names examples/%s, which does not exist", where, m[1]))
			}
		}
	}
	for _, doc := range []string{"README.md", "ARCHITECTURE.md", "DESIGN.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			out = append(out, fmt.Sprintf("reading %s: %v", doc, err))
			continue
		}
		refs(doc, string(text))
	}
	fset := token.NewFileSet()
	err := filepath.WalkDir("examples", func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
				if v, err := strconv.Unquote(lit.Value); err == nil {
					refs(fset.Position(lit.Pos()).String(), v)
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		out = append(out, fmt.Sprintf("scanning examples/: %v", err))
	}
	return out
}

// fence matches a fenced code block, codeSpan an inline code span, and
// goName a Go identifier, bare or dot-qualified.
var (
	fence    = regexp.MustCompile("(?ms)^\\s*```.*?^\\s*```[^\\n]*$")
	codeSpan = regexp.MustCompile("`([^`]+)`")
	goName   = regexp.MustCompile(`^[A-Za-z_]\w*(\.[A-Za-z_]\w*)*$`)
)

// checkDocNames reports every backticked name in the top-level docs with
// a camelCase or PascalCase part (one that mixes upper and lower case)
// that is not an identifier in any .go file of the module.
func checkDocNames() []string {
	idents, err := moduleIdents()
	if err != nil {
		return []string{fmt.Sprintf("scanning Go identifiers: %v", err)}
	}
	var out []string
	for _, doc := range []string{"README.md", "ARCHITECTURE.md", "DESIGN.md"} {
		raw, err := os.ReadFile(doc)
		if err != nil {
			out = append(out, fmt.Sprintf("reading %s: %v", doc, err))
			continue
		}
		// Blank the fenced blocks, keeping their newlines, so the spans
		// pair up and the line numbers stay true.
		text := fence.ReplaceAllStringFunc(string(raw), func(block string) string {
			return strings.Repeat("\n", strings.Count(block, "\n"))
		})
		for _, m := range codeSpan.FindAllStringSubmatchIndex(text, -1) {
			name := text[m[2]:m[3]]
			for _, part := range strings.Split(name, ".") {
				mixed := strings.ToLower(part) != part && strings.ToUpper(part) != part
				if goName.MatchString(name) && mixed && !idents[part] {
					out = append(out, fmt.Sprintf("%s:%d names `%s`, but no .go file has the identifier %s",
						doc, 1+strings.Count(text[:m[0]], "\n"), name, part))
				}
			}
		}
	}
	return out
}

// moduleIdents collects every identifier token of the module's .go
// files, test files included. A directory with its own go.mod is another
// module.
func moduleIdents() (map[string]bool, error) {
	idents := map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil || path == "." {
			return err
		}
		if d.IsDir() {
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil || strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		var s scanner.Scanner
		s.Init(fset.AddFile(path, -1, len(src)), src, nil, 0)
		for _, tok, lit := s.Scan(); tok != token.EOF; _, tok, lit = s.Scan() {
			if tok == token.IDENT {
				idents[lit] = true
			}
		}
		return nil
	})
	return idents, err
}

// checkDocs verifies the package comment and per-identifier doc comments
// for one directory's non-test files.
func checkDocs(dir string) []string {
	matches, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		return []string{err.Error()}
	}
	var out []string
	fset := token.NewFileSet()
	pkgDoc := false
	parsed := 0
	for _, path := range matches {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			out = append(out, fmt.Sprintf("parsing %s: %v", path, err))
			continue
		}
		parsed++
		if f.Doc != nil {
			pkgDoc = true
		}
		out = append(out, checkFileDocs(fset, path, f)...)
	}
	if parsed > 0 && !pkgDoc {
		out = append(out, fmt.Sprintf("package in %s has no package comment (ST1000)", dir))
	}
	return out
}

// checkFileDocs walks one file's top-level declarations and reports
// exported identifiers without doc comments.
func checkFileDocs(fset *token.FileSet, path string, f *ast.File) []string {
	var out []string
	report := func(pos token.Pos, kind, name string) {
		out = append(out, fmt.Sprintf("%s: exported %s %s has no doc comment",
			fset.Position(pos), kind, name))
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if !d.Name.IsExported() || d.Doc != nil {
				continue
			}
			if d.Recv != nil && !exportedReceiver(d.Recv) {
				continue // method on an unexported type: not public API
			}
			kind := "function"
			if d.Recv != nil {
				kind = "method"
			}
			report(d.Pos(), kind, d.Name.Name)
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() && d.Doc == nil && s.Doc == nil {
						report(s.Pos(), "type", s.Name.Name)
					}
				case *ast.ValueSpec:
					// A doc on the grouped decl covers its specs
					// (idiomatic const/var blocks); otherwise each
					// exported spec needs its own doc or line comment.
					if d.Doc != nil || s.Doc != nil || s.Comment != nil {
						continue
					}
					for _, n := range s.Names {
						if n.IsExported() {
							report(n.Pos(), "value", n.Name)
						}
					}
				}
			}
		}
	}
	return out
}

// exportedReceiver reports whether a method's receiver names an exported
// type.
func exportedReceiver(recv *ast.FieldList) bool {
	if len(recv.List) == 0 {
		return false
	}
	t := recv.List[0].Type
	for {
		switch x := t.(type) {
		case *ast.StarExpr:
			t = x.X
		case *ast.IndexExpr: // generic receiver
			t = x.X
		case *ast.Ident:
			return x.IsExported()
		default:
			return false
		}
	}
}
