package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// seedTree writes files (path → content) under a fresh directory and makes
// it the working directory, as doccheck runs from the repository root.
func seedTree(t *testing.T, files map[string]string) {
	t.Helper()
	t.Chdir(t.TempDir())
	for path, content := range files {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCheckExamplesDanglingName seeds the case a deleted example left
// behind: examples/pipeline_mesh printed "(Two-axis runs:
// examples/hybrid_mesh.)" after examples/hybrid_mesh was gone. The check
// must name the literal's file and the missing example, and a doc naming
// a missing example must fail the same way.
func TestCheckExamplesDanglingName(t *testing.T) {
	const src = `package main

import "fmt"

func main() {
	fmt.Println("the modeled step time change. (Two-axis runs: examples/hybrid_mesh.)")
}
`
	seedTree(t, map[string]string{
		"README.md":                      "Run `go run ./examples/pipeline_mesh`.\n",
		"ARCHITECTURE.md":                "See examples/pipeline_mesh/main.go.\n",
		"DESIGN.md":                      "The mesh demo moved: examples/ulysses_sp.\n",
		"examples/pipeline_mesh/main.go": src,
	})
	got := checkExamples()
	want := []string{
		"DESIGN.md names examples/ulysses_sp, which does not exist",
		"examples/pipeline_mesh/main.go:6:14 names examples/hybrid_mesh, which does not exist",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("checkExamples() =\n%s\nwant\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// TestCheckExamplesConsistent: a tree whose every example is in the README
// and whose every example name resolves reports nothing.
func TestCheckExamplesConsistent(t *testing.T) {
	seedTree(t, map[string]string{
		"README.md":                      "examples/pipeline_mesh and examples/quickstart.\n",
		"ARCHITECTURE.md":                "Each example lives under examples/<name>.\n",
		"DESIGN.md":                      "",
		"examples/pipeline_mesh/main.go": "package main\n\nfunc main() { println(\"see examples/quickstart\") }\n",
		"examples/quickstart/main.go":    "package main\n\nfunc main() {}\n",
	})
	if got := checkExamples(); len(got) != 0 {
		t.Fatalf("checkExamples() = %q, want no problem", got)
	}
}

// TestCheckDocNames: a backticked camelCase or PascalCase name that no
// .go file of the module has as an identifier is reported with its doc
// and line, bare or as a part of a qualified name; a name found in a
// test file counts, as do all-lower or all-upper words, fenced code
// blocks and a nested module's files do not.
func TestCheckDocNames(t *testing.T) {
	seedTree(t, map[string]string{
		"go.mod":          "module m\n",
		"eng/eng.go":      "package eng\n\n// Engine steps.\ntype Engine struct{ goMsg int }\n\nfunc (e *Engine) Flush() {}\n",
		"eng/eng_test.go": "package eng\n\nfunc tapped() {}\n",
		"bench/go.mod":    "module bench\n",
		"bench/b.go":      "package bench\n\nfunc benchOnly() {}\n",
		"README.md":       "Call `eng.Engine.Flush`, or `tapped`; `stv`, `STV` and `go test ./...` are not names.\n",
		"ARCHITECTURE.md": "The engine sends a `goMsg`\nand an\n`opGo` over `Engine.goCh`.\n\n```go\nvar codeOnly = `inFence`\n```\nThen `benchOnly`.\n",
		"DESIGN.md":       "",
	})
	got := checkDocNames()
	want := []string{
		"ARCHITECTURE.md:3 names `opGo`, but no .go file has the identifier opGo",
		"ARCHITECTURE.md:3 names `Engine.goCh`, but no .go file has the identifier goCh",
		"ARCHITECTURE.md:8 names `benchOnly`, but no .go file has the identifier benchOnly",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("checkDocNames() =\n%s\nwant\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
