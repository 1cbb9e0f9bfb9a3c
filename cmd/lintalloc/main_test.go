package main

import (
	"go/parser"
	"go/token"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func check(t *testing.T, src string) []string {
	t.Helper()
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "src.go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	return checkFile(fset, file)
}

func TestLinterAcceptsIntoForms(t *testing.T) {
	src := `package p
func ok(out, a, b *tensor.Matrix) {
	tensor.MatMulInto(out, a, b)
	tensor.MatMulAddInto(out, a, b)
	tensor.MatMulTransposeAInto(out, a, b)
	tensor.MatMulTransposeAAddInto(out, a, b)
	tensor.MatMulTransposeBInto(out, a, b)
	tensor.MatMulTransposeBAddInto(out, a, b)
}
`
	if v := check(t, src); len(v) != 0 {
		t.Fatalf("Into forms flagged: %v", v)
	}
}

func TestLinterFlagsAllocatingForms(t *testing.T) {
	src := `package p
func bad(a, b *tensor.Matrix) *tensor.Matrix {
	x := tensor.MatMul(a, b)
	y := tensor.MatMulTransposeA(a, b)
	return tensor.MatMulTransposeB(x, y)
}
`
	v := check(t, src)
	if len(v) != 3 {
		t.Fatalf("want 3 violations, got %v", v)
	}
	for _, want := range []string{"MatMul ", "MatMulTransposeA ", "MatMulTransposeB "} {
		found := false
		for _, line := range v {
			if strings.Contains(line, "tensor."+strings.TrimSpace(want)+" ") {
				found = true
			}
		}
		if !found {
			t.Errorf("no violation mentions tensor.%s: %v", strings.TrimSpace(want), v)
		}
	}
}

func TestLinterIgnoresOtherReceivers(t *testing.T) {
	// Only the tensor package's conveniences are forbidden; a method or a
	// different package with the same name is fine.
	src := `package p
func ok(m mat.Helper) {
	mat.MatMul(nil, nil)
	m.MatMul(nil, nil)
}
`
	if v := check(t, src); len(v) != 0 {
		t.Fatalf("unrelated MatMul flagged: %v", v)
	}
}

// TestRepoIsClean runs the linter over the actual repository — the same
// invocation `make lint-alloc` performs.
func TestRepoIsClean(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	if code := run(root, os.Stderr); code != 0 {
		t.Fatalf("lintalloc over repo root exited %d", code)
	}
}

// TestRunCoversEncoderAndCore: a hot-path product that allocates in the
// frozen encoder (internal/lm) or the model's prepare/forward
// (internal/core) fails the run; the same call in a test file there, or in
// a package off the hot path, does not.
func TestRunCoversEncoderAndCore(t *testing.T) {
	bad := "package p\nfunc f(a, b *tensor.Matrix) { _ = tensor.MatMul(a, b) }\n"
	for _, dir := range []string{"lm", "core"} {
		root := t.TempDir()
		write := func(rel string) {
			path := filepath.Join(root, rel)
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(bad), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		write(filepath.Join("internal", dir, "x_test.go"))
		write(filepath.Join("internal", "experiments", "x.go"))
		if code := run(root, io.Discard); code != 0 {
			t.Fatalf("internal/%s: test file or cold package flagged (exit %d)", dir, code)
		}
		write(filepath.Join("internal", dir, "x.go"))
		var out strings.Builder
		if code := run(root, &out); code != 1 || !strings.Contains(out.String(), filepath.Join("internal", dir, "x.go")) {
			t.Fatalf("internal/%s/x.go: exit %d, output %q; want exit 1 naming the file", dir, code, out.String())
		}
	}
}
