package registry

// Godoc hygiene for the repository layer: every exported symbol in
// internal/registry and internal/index must carry a doc comment (the
// per-symbol half of what check.sh's package-comment gate enforces at
// package granularity), and the sources and docs must not describe a
// removed design — the audit that caught PR 4's stale comments, kept as a
// test so they cannot regress.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// exportedDocTargets parses a package directory (tests excluded) and
// reports every exported top-level symbol lacking a doc comment.
func exportedDocTargets(t *testing.T, dir string) []string {
	t.Helper()
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	var missing []string
	for _, pkg := range pkgs {
		for fname, f := range pkg.Files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if d.Name.IsExported() && d.Doc == nil {
						missing = append(missing, fname+": func "+d.Name.Name)
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							if s.Name.IsExported() && d.Doc == nil && s.Doc == nil {
								missing = append(missing, fname+": type "+s.Name.Name)
							}
							// Exported fields of exported structs need docs
							// too (the registry's option structs are contract
							// surface).
							if st, ok := s.Type.(*ast.StructType); ok && s.Name.IsExported() {
								for _, fld := range st.Fields.List {
									for _, n := range fld.Names {
										if n.IsExported() && fld.Doc == nil && fld.Comment == nil {
											missing = append(missing, fname+": field "+s.Name.Name+"."+n.Name)
										}
									}
								}
							}
						case *ast.ValueSpec:
							for _, n := range s.Names {
								if n.IsExported() && d.Doc == nil && s.Doc == nil && s.Comment == nil {
									missing = append(missing, fname+": "+n.Name)
								}
							}
						}
					}
				}
			}
		}
	}
	return missing
}

func TestExportedSymbolsAreDocumented(t *testing.T) {
	for _, dir := range []string{".", "../index"} {
		for _, m := range exportedDocTargets(t, dir) {
			t.Errorf("exported symbol without a doc comment: %s", m)
		}
	}
}

// TestNoStaleSingleMapDocs greps the repository's non-test Go sources,
// README.md and docs/*.md for wording that describes removed designs: the
// sharded registry and index (name-hashed map shards, document shards
// placed by fingerprint, a key directory, a token-sharded document
// frequency table — replaced by one map and one index behind one lock),
// the per-token signature weights, and the names of deleted entry points,
// options and flags. CHANGES.md and ROADMAP.md are history and stay out
// of the scan.
func TestNoStaleSingleMapDocs(t *testing.T) {
	stale := []string{
		"name-hashed",
		"sharded token inverted index",
		"key directory",
		"map shards",
		"index shards",
		"Hash32",
		"CommonCutoff",
		"PostingsTotal",
		"weighted overlap",
		"NewWeightedSignature",
		"WeightedSignatureTokens",
		"SignatureTokenWeight",
		"-wal-group-commit",
		"GroupCommitWindow",
		"MatchTop",
		"MatchIndexed",
		"MatchAllContext",
		"MatchAllSchema",
		"OpenPersistent(",
		"SnapshotInterval",
		"FastStrongLinks",
		"-snapshot-interval",
		"-wal=false",
		"PruneOptions",
		"DefaultIndexOptions",
		"Halve(",
		"routerError",
		"writeRouterJSON",
		"writeRouterError",
		"drainGuard",
		"twin of cupidd",
		"shardBatch",
		"wireResult",
		"shardDoc",
		"MergeRanked",
		"mirrors cupidd",
		"RetrievalFamily",
		"executeFamily",
		"family_fallback",
		"familyAutoMinCorpus",
		"-retrieval=family",
		"family-routed",
	}
	const root = "../.."
	var files []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	docs, err := filepath.Glob(filepath.Join(root, "docs", "*.md"))
	if err != nil {
		t.Fatal(err)
	}
	files = append(append(files, filepath.Join(root, "README.md")), docs...)
	for _, name := range files {
		b, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		src := strings.ToLower(string(b))
		for _, phrase := range stale {
			if strings.Contains(src, strings.ToLower(phrase)) {
				t.Errorf("%s still names a removed design (%q)", name, phrase)
			}
		}
	}
}
