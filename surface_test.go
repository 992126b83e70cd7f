package flowzip_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// rootUsers names, for every exported name of package flowzip, one user. An
// entry is one of:
//
//   - a test, example or benchmark of this directory whose body names
//     flowzip.Name;
//   - a file under bench/ that names flowzip.Name;
//   - F(p), F(), T.Field or T.Method(): a parameter or the result of the
//     root function F, or a field or a method's result of the type T another
//     root name aliases, whose type is Name: the type a caller must
//     construct, or read, to use F or T;
//   - doc(F), for an error value: the root function F whose doc comment
//     promises it.
var rootUsers = map[string]string{
	"Archive":              "Compress()",
	"BaselineRatio":        "TestFacadeBaselines",
	"Baselines":            "TestFacadeBaselines",
	"Compress":             "ExampleCompress",
	"Config":               "ExampleNew",
	"Daemon":               "bench/harness.go",
	"DaemonConfig":         "ExampleNewDaemon",
	"DecodeArchive":        "TestFacadeEndToEnd",
	"Decompress":           "TestFacadeEndToEnd",
	"DecompressParallel":   "TestFacadeDecodePaths",
	"Decompressor":         "NewDecompressor()",
	"DefaultFractalConfig": "TestFacadeGenerators",
	"DefaultOptions":       "ExampleCompress",
	"DefaultP2PConfig":     "TestIntegrationP2PPipeline",
	"DefaultWebConfig":     "ExampleCompress",
	"ErrBadIndex":          "TestFacadeDecodePaths",
	"ErrNoIndex":           "TestFacadeDecodePaths",
	"ErrSessionDrained":    "doc(Ingest)",
	"FlowFilter":           "ExampleReader",
	"FractalConfig":        "GenerateFractal(cfg)",
	"GenerateFractal":      "TestFacadeGenerators",
	"GenerateP2P":          "TestIntegrationP2PPipeline",
	"GenerateWeb":          "ExampleCompress",
	"IndexConfig":          "ExampleReader",
	"IndexStats":           "Reader.IndexStats()",
	"Ingest":               "ExampleNewDaemon",
	"LoadTrace":            "TestFacadeTraceIO",
	"Method":               "BaselineRatio(m)",
	"NetConfig":            "ExampleNewDaemon",
	"New":                  "ExampleNew",
	"NewDaemon":            "ExampleNewDaemon",
	"NewDecompressor":      "TestFacadeDecodePaths",
	"NewPipelineMetrics":   "ExampleNewPipelineMetrics",
	"NewRegistry":          "ExampleNewPipelineMetrics",
	"NewTrace":             "TestFacadeGenerators",
	"NewTracer":            "ExampleNewPipelineMetrics",
	"OpenArchive":          "ExampleReader",
	"OpenArchiveFile":      "bench/harness.go",
	"OpenPcap":             "ExampleOpenPcap",
	"Options":              "Compress(opts)",
	"P2PConfig":            "GenerateP2P(cfg)",
	"Packet":               "TestFacadeDecodePaths",
	"PacketSource":         "TraceSource()",
	"PcapSource":           "OpenPcap()",
	"Pipeline":             "BenchmarkCompressStream",
	"PipelineMetrics":      "Config.Metrics",
	"Quotas":               "DaemonConfig.Quotas",
	"RandomizeAddresses":   "TestFacadeGenerators",
	"ReadSegmentMeta":      "ExampleNewDaemon",
	"Reader":               "bench/harness.go",
	"ReaderStats":          "Reader.Stats()",
	"Registry":             "NewPipelineMetrics(reg)",
	"Rotation":             "bench/harness.go",
	"SegmentMeta":          "ReadSegmentMeta()",
	"SessionSummary":       "bench/harness.go",
	"SynthConfig":          "ExampleSynthesize",
	"Synthesize":           "ExampleSynthesize",
	"Trace":                "Compress(tr)",
	"TraceSource":          "ExampleNew",
	"Tracer":               "Config.Trace",
	"WebConfig":            "GenerateWeb(cfg)",
	"Weights":              "Options.Weights",
}

// flagUsers names, for every flag a command registers, one user: "doc", a
// usage line of the command's doc comment that sets it, or a test of the
// command's package that runs the verb's function with the flag set.
var flagUsers = map[string]string{
	"figures -ascii":  "doc",
	"figures -csv":    "doc",
	"figures -fig":    "doc",
	"figures -flows":  "doc",
	"figures -i":      "TestCaptureInput",
	"figures -kernel": "doc",
	"figures -scale":  "doc",
	"figures -seed":   "doc",

	"flowzip compare -i":             "doc",
	"flowzip compress -cpuprofile":   "doc",
	"flowzip compress -i":            "TestCompressMatchesLibrary",
	"flowzip compress -index":        "TestCompressMatchesLibrary",
	"flowzip compress -index-group":  "TestCompressRefusesIgnoredFlags",
	"flowzip compress -limit":        "doc",
	"flowzip compress -memprofile":   "doc",
	"flowzip compress -o":            "TestCompressMatchesLibrary",
	"flowzip compress -progress":     "TestCompressMatchesLibrary",
	"flowzip compress -shortmax":     "doc",
	"flowzip compress -trace-out":    "doc",
	"flowzip compress -w1":           "doc",
	"flowzip compress -w2":           "doc",
	"flowzip compress -w3":           "doc",
	"flowzip decompress -i":          "TestDecompressMatchesLibrary",
	"flowzip decompress -o":          "TestDecompressMatchesLibrary",
	"flowzip extract -from":          "doc",
	"flowzip extract -i":             "TestExtractPrefixSelectsServers",
	"flowzip extract -o":             "TestExtractPrefixSelectsServers",
	"flowzip extract -prefix":        "TestExtractPrefixSelectsServers",
	"flowzip extract -to":            "doc",
	"flowzip extract -trace-out":     "doc",
	"flowzip ingest -connect":        "doc",
	"flowzip ingest -frame-timeout":  "doc",
	"flowzip ingest -i":              "doc",
	"flowzip ingest -limit":          "doc",
	"flowzip ingest -result-timeout": "doc",
	"flowzip ingest -shortmax":       "doc",
	"flowzip ingest -tenant":         "doc",
	"flowzip ingest -w1":             "doc",
	"flowzip ingest -w2":             "doc",
	"flowzip ingest -w3":             "doc",
	"flowzip ingest -window":         "doc",
	"flowzip inspect -explain":       "TestInspectExplain",
	"flowzip inspect -i":             "TestInspectExplain",
	"flowzip synth -flows":           "doc",
	"flowzip synth -i":               "doc",
	"flowzip synth -o":               "doc",
	"flowzip synth -scale":           "doc",
	"flowzip synth -seed":            "doc",

	"flowzipd -dir":               "doc",
	"flowzipd -drain-timeout":     "doc",
	"flowzipd -frame-timeout":     "doc",
	"flowzipd -listen":            "doc",
	"flowzipd -max-archive-bytes": "doc",
	"flowzipd -max-sessions":      "doc",
	"flowzipd -metrics":           "doc",
	"flowzipd -pprof":             "doc",
	"flowzipd -q":                 "doc",
	"flowzipd -result-timeout":    "doc",
	"flowzipd -rotate-age":        "doc",
	"flowzipd -rotate-packets":    "doc",
	"flowzipd -window":            "doc",

	"tracegen -base":     "doc",
	"tracegen -duration": "doc",
	"tracegen -flows":    "doc",
	"tracegen -kind":     "doc",
	"tracegen -o":        "doc",
	"tracegen -packets":  "doc",
	"tracegen -q":        "doc",
	"tracegen -seed":     "doc",
	"tracegen -servers":  "doc",
}

// TestPublicSurface holds every exported name of package flowzip and every
// flag the commands register to the user its table names, and fails on a
// name or flag the tables lack, an entry for a name or flag that is gone, and
// an entry whose user does not exist or does not use it. A name or flag
// without a user goes rather than into the table.
func TestPublicSurface(t *testing.T) {
	root := parseFile(t, "flowzip.go")
	exports := rootExports(root)
	tests := funcBodies(t, ".", "_test.go")
	for _, name := range slices.Sorted(maps.Keys(exports)) {
		user, ok := rootUsers[name]
		if !ok {
			t.Errorf("flowzip.%s has no entry in rootUsers: name its user, or delete it", name)
			continue
		}
		if err := checkRootUser(t, root, exports, tests, name, user); err != nil {
			t.Errorf("flowzip.%s: %s: %v", name, user, err)
		}
	}
	for _, name := range slices.Sorted(maps.Keys(rootUsers)) {
		if _, ok := exports[name]; !ok {
			t.Errorf("rootUsers names %s, which flowzip.go no longer exports", name)
		}
	}

	flags := registeredFlags(t)
	for _, key := range slices.Sorted(maps.Keys(flags)) {
		user, ok := flagUsers[key]
		if !ok {
			t.Errorf("%s has no entry in flagUsers: name its user, or delete it", key)
			continue
		}
		if err := checkFlagUser(t, flags[key], user); err != nil {
			t.Errorf("%s: %s: %v", key, user, err)
		}
	}
	for _, key := range slices.Sorted(maps.Keys(flagUsers)) {
		if _, ok := flags[key]; !ok {
			t.Errorf("flagUsers names %s, which no command registers", key)
		}
	}
}

func parseFile(t *testing.T, path string) *ast.File {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// rootExports maps each exported top-level name of flowzip.go to its
// declaration: a *ast.TypeSpec, *ast.ValueSpec or *ast.FuncDecl.
func rootExports(f *ast.File) map[string]ast.Node {
	out := map[string]ast.Node{}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil && d.Name.IsExported() {
				out[d.Name.Name] = d
			}
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() {
						out[s.Name.Name] = s
					}
				case *ast.ValueSpec:
					for _, n := range s.Names {
						if n.IsExported() {
							out[n.Name] = s
						}
					}
				}
			}
		}
	}
	return out
}

// funcBodies maps each top-level function of the dir's files with the given
// suffix to its declaration.
func funcBodies(t *testing.T, dir, suffix string) map[string]*ast.FuncDecl {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "*"+suffix))
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]*ast.FuncDecl{}
	for _, p := range paths {
		for _, d := range parseFile(t, p).Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil {
				out[fd.Name.Name] = fd
			}
		}
	}
	return out
}

// names reports whether n mentions pkg.sel, or sel alone where pkg is "".
func names(n ast.Node, pkg, sel string) bool {
	found := false
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if x, ok := n.X.(*ast.Ident); ok && pkg != "" && x.Name == pkg && n.Sel.Name == sel {
				found = true
			}
		case *ast.Ident:
			if pkg == "" && n.Name == sel {
				found = true
			}
		}
		return !found
	})
	return found
}

func checkRootUser(t *testing.T, root *ast.File, exports map[string]ast.Node, tests map[string]*ast.FuncDecl, name, user string) error {
	switch {
	case strings.HasPrefix(user, "Test") || strings.HasPrefix(user, "Example") || strings.HasPrefix(user, "Benchmark"):
		fd, ok := tests[user]
		if !ok {
			return fmt.Errorf("no such test, example or benchmark in this directory")
		}
		if !names(fd.Body, "flowzip", name) {
			return fmt.Errorf("does not name flowzip.%s", name)
		}
	case strings.HasPrefix(user, "bench/"):
		if !names(parseFile(t, user), "flowzip", name) {
			return fmt.Errorf("does not name flowzip.%s", name)
		}
	case strings.HasPrefix(user, "doc(") && strings.HasSuffix(user, ")"):
		fd, ok := exports[user[4:len(user)-1]].(*ast.FuncDecl)
		if !ok {
			return fmt.Errorf("no root function of that name")
		}
		if _, isVar := exports[name].(*ast.ValueSpec); !isVar || !strings.HasPrefix(name, "Err") {
			return fmt.Errorf("only an error value may be kept by a doc comment")
		}
		if !strings.Contains(fd.Doc.Text(), name) {
			return fmt.Errorf("its doc comment does not name %s", name)
		}
	case strings.Contains(user, "."):
		return checkField(t, root, exports, name, user)
	case strings.Contains(user, "("):
		return checkSignature(exports, name, user)
	default:
		return fmt.Errorf("not a test, bench/ file, signature, field or doc entry")
	}
	return nil
}

// checkSignature holds F(p) or F() to a parameter or result of root function
// F whose type names the root name.
func checkSignature(exports map[string]ast.Node, name, user string) error {
	fn, param, _ := strings.Cut(strings.TrimSuffix(user, ")"), "(")
	fd, ok := exports[fn].(*ast.FuncDecl)
	if !ok {
		return fmt.Errorf("no root function %s", fn)
	}
	fields := fd.Type.Results
	if param != "" {
		fields = fd.Type.Params
	}
	if fields != nil {
		for _, f := range fields.List {
			named := param == ""
			for _, n := range f.Names {
				named = named || n.Name == param
			}
			if named && names(f.Type, "", name) {
				return nil
			}
		}
	}
	return fmt.Errorf("no such parameter or result of type %s", name)
}

// checkField holds T.Field to a field, and T.Method() to a method's result,
// of the type the root alias T names, in its own package, whose type is the
// one the root alias name stands for.
func checkField(t *testing.T, root *ast.File, exports map[string]ast.Node, name, user string) error {
	owner, field, _ := strings.Cut(user, ".")
	opkg, otype, err := aliasOf(root, exports, owner)
	if err != nil {
		return err
	}
	tpkg, ttype, err := aliasOf(root, exports, name)
	if err != nil {
		return err
	}
	if tpkg == opkg {
		tpkg = ""
	} else {
		tpkg = filepath.Base(tpkg)
	}
	pkgs, err := parser.ParseDir(token.NewFileSet(), strings.TrimPrefix(opkg, "flowzip/"), func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pkgs {
		for _, f := range p.Files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.GenDecl:
					for _, s := range d.Specs {
						ts, ok := s.(*ast.TypeSpec)
						if !ok || ts.Name.Name != otype {
							continue
						}
						st, ok := ts.Type.(*ast.StructType)
						if !ok {
							return fmt.Errorf("%s is no struct", owner)
						}
						for _, fl := range st.Fields.List {
							for _, n := range fl.Names {
								if n.Name == field {
									if names(fl.Type, tpkg, ttype) {
										return nil
									}
									return fmt.Errorf("field %s is not of type %s", field, name)
								}
							}
						}
					}
				case *ast.FuncDecl:
					if d.Recv == nil || d.Name.Name != strings.TrimSuffix(field, "()") || !strings.HasSuffix(field, "()") {
						continue
					}
					if !names(d.Recv.List[0].Type, "", otype) {
						continue
					}
					if d.Type.Results != nil && names(d.Type.Results, tpkg, ttype) {
						return nil
					}
					return fmt.Errorf("method %s does not return %s", field, name)
				}
			}
		}
	}
	return fmt.Errorf("no field or method %s of %s", field, owner)
}

// aliasOf returns the import path and type name the root alias name stands
// for.
func aliasOf(root *ast.File, exports map[string]ast.Node, name string) (path, typ string, err error) {
	ts, ok := exports[name].(*ast.TypeSpec)
	if !ok || !ts.Assign.IsValid() {
		return "", "", fmt.Errorf("%s is no root type alias", name)
	}
	sel, ok := ts.Type.(*ast.SelectorExpr)
	if !ok {
		return "", "", fmt.Errorf("%s aliases no package's type", name)
	}
	pkg := sel.X.(*ast.Ident).Name
	for _, imp := range root.Imports {
		p, _ := strconv.Unquote(imp.Path.Value)
		if filepath.Base(p) == pkg {
			return p, sel.Sel.Name, nil
		}
	}
	return "", "", fmt.Errorf("no import for %s", pkg)
}

// A flag is one flag a command registers: its command's directory, its
// verb's flag set, and the function that registers that set.
type cmdFlag struct {
	dir, verb, name, fn string
	doc                 string
}

// flagMethods are the flag.FlagSet methods that register a flag, with the
// index of the flag name among their arguments.
var flagMethods = map[string]int{
	"Bool": 0, "Duration": 0, "Float64": 0, "Func": 0, "Int": 0, "Int64": 0,
	"String": 0, "Uint": 0, "Uint64": 0, "BoolFunc": 0,
	"BoolVar": 1, "DurationVar": 1, "Float64Var": 1, "IntVar": 1, "Int64Var": 1,
	"StringVar": 1, "TextVar": 1, "UintVar": 1, "Uint64Var": 1, "Var": 1,
}

// registration is a flag name a call registers: a literal, or the registering
// function's parameter at index param.
type registration struct {
	name  string
	param int
}

// registeredFlags lists every flag of cmd/*/main.go, keyed "command [verb]
// -name": registered on a flag set directly, through the package flag's own
// set, or through a helper taking the *flag.FlagSet (internal/cli's or the
// command's own).
func registeredFlags(t *testing.T) map[string]cmdFlag {
	cli := parseFile(t, "internal/cli/cli.go")
	helpers := map[string][]registration{}
	for name, regs := range flagHelpers(cli) {
		helpers["cli."+name] = regs
	}
	mains, err := filepath.Glob("cmd/*/main.go")
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]cmdFlag{}
	for _, path := range mains {
		dir := filepath.Dir(path)
		cmd := filepath.Base(dir)
		f := parseFile(t, path)
		local := flagHelpers(f)
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil || local[fd.Name.Name] != nil {
				continue
			}
			verb := ""
			sets := map[string]bool{"flag": true}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				as, ok := n.(*ast.AssignStmt)
				if !ok || len(as.Rhs) != 1 {
					return true
				}
				if call, ok := as.Rhs[0].(*ast.CallExpr); ok && isSel(call.Fun, "flag", "NewFlagSet") {
					if lit, ok := call.Args[0].(*ast.BasicLit); ok {
						verb, _ = strconv.Unquote(lit.Value)
						sets[as.Lhs[0].(*ast.Ident).Name] = true
					}
				}
				return true
			})
			if verb == cmd {
				verb = ""
			}
			add := func(name string) {
				key := cmd + " -" + name
				if verb != "" {
					key = cmd + " " + verb + " -" + name
				}
				out[key] = cmdFlag{dir: dir, verb: verb, name: name, fn: fd.Name.Name, doc: f.Doc.Text()}
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if r, ok := flagRegistration(call, sets, nil); ok {
					add(r.name)
					return true
				}
				var regs []registration
				switch fun := call.Fun.(type) {
				case *ast.Ident:
					regs = local[fun.Name]
				case *ast.SelectorExpr:
					if x, ok := fun.X.(*ast.Ident); ok {
						regs = helpers[x.Name+"."+fun.Sel.Name]
					}
				}
				for _, r := range regs {
					if r.param < 0 {
						add(r.name)
					} else if lit, ok := call.Args[r.param].(*ast.BasicLit); ok {
						name, _ := strconv.Unquote(lit.Value)
						add(name)
					} else {
						t.Errorf("%s: %s passes a flag name that is not a literal", path, fd.Name.Name)
					}
				}
				return true
			})
		}
	}
	return out
}

// flagHelpers maps each function of f that takes a *flag.FlagSet to the
// flags it registers on it.
func flagHelpers(f *ast.File) map[string][]registration {
	out := map[string][]registration{}
	for _, d := range f.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		sets := map[string]bool{}
		var params []string
		for _, p := range fd.Type.Params.List {
			for _, n := range p.Names {
				params = append(params, n.Name)
				if star, ok := p.Type.(*ast.StarExpr); ok && isSel(star.X, "flag", "FlagSet") {
					sets[n.Name] = true
				}
			}
		}
		if len(sets) == 0 {
			continue
		}
		var regs []registration
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if r, ok := flagRegistration(call, sets, params); ok {
					regs = append(regs, r)
				}
			}
			return true
		})
		out[fd.Name.Name] = regs
	}
	return out
}

// flagRegistration reports the flag a call registers on one of sets, its name
// a literal or, among params, a parameter of the enclosing function.
func flagRegistration(call *ast.CallExpr, sets map[string]bool, params []string) (registration, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return registration{}, false
	}
	x, ok := sel.X.(*ast.Ident)
	i, isFlag := flagMethods[sel.Sel.Name]
	if !ok || !sets[x.Name] || !isFlag || len(call.Args) <= i {
		return registration{}, false
	}
	switch arg := call.Args[i].(type) {
	case *ast.BasicLit:
		name, err := strconv.Unquote(arg.Value)
		return registration{name: name, param: -1}, err == nil
	case *ast.Ident:
		if p := slices.Index(params, arg.Name); p >= 0 {
			return registration{param: p}, true
		}
	}
	return registration{}, false
}

func isSel(e ast.Expr, pkg, name string) bool {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	x, ok := sel.X.(*ast.Ident)
	return ok && x.Name == pkg && sel.Sel.Name == name
}

// checkFlagUser holds a flag to its entry: "doc" wants a usage line of the
// command's doc comment, the command and its verb first, that sets the flag;
// a test name wants a test of the command's package that calls the verb's
// function and passes the flag.
func checkFlagUser(t *testing.T, fl cmdFlag, user string) error {
	if user == "doc" {
		for _, line := range strings.Split(fl.doc, "\n") {
			words := strings.Fields(line)
			if len(words) == 0 || words[0] != filepath.Base(fl.dir) {
				continue
			}
			if fl.verb != "" && (len(words) < 2 || words[1] != fl.verb) {
				continue
			}
			for _, w := range words {
				w, _, _ = strings.Cut(strings.Trim(w, "[]"), "=")
				if w == "-"+fl.name {
					return nil
				}
			}
		}
		return fmt.Errorf("no usage line of the command's doc comment sets it")
	}
	fd, ok := funcBodies(t, fl.dir, "_test.go")[user]
	if !ok || !strings.HasPrefix(user, "Test") {
		return fmt.Errorf("no such test in %s", fl.dir)
	}
	calls, sets := false, false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if id, ok := n.Fun.(*ast.Ident); ok && id.Name == fl.fn {
				calls = true
			}
		case *ast.BasicLit:
			if s, err := strconv.Unquote(n.Value); err == nil {
				s, _, _ = strings.Cut(s, " ")
				s, _, _ = strings.Cut(s, "=")
				sets = sets || s == "-"+fl.name
			}
		}
		return true
	})
	if !calls {
		return fmt.Errorf("does not call %s", fl.fn)
	}
	if !sets {
		return fmt.Errorf("does not pass -%s", fl.name)
	}
	return nil
}
