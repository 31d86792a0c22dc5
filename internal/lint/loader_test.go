package lint_test

import (
	"testing"

	"lvm/internal/lint"
)

// An external test package that calls a helper from its package's
// export_test.go file, and reaches the package's types through another
// module package as well, loads the way cmd/go builds it: against the
// package's test variant, with the importing package checked again
// against that variant.
func TestLoadDirExternalTestSeesTestVariant(t *testing.T) {
	const dir = "testdata/src/xtestvariant"
	loader, err := lint.NewLoader(dir)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.LoadDir(dir, "lvm/internal/lint/testdata/src/xtestvariant")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 2 || pkgs[0].IsXTest || !pkgs[1].IsXTest {
		t.Fatalf("loaded %d packages, want the package and its external tests", len(pkgs))
	}
	if got := pkgs[1].Types.Name(); got != "xtestvariant_test" {
		t.Errorf("external test package named %q", got)
	}
}
