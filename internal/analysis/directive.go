package analysis

import (
	"go/ast"
	"go/token"
	"strings"
)

// Directives are magic comments of the form
//
//	//ascoma:<name> [argument...]
//
// (no space after //, like //go: directives). Two families exist:
//
//   - annotations that opt code in to a check: //ascoma:hotpath,
//     //ascoma:stats, //ascoma:stats-serialize, //ascoma:stats-finalize T;
//   - escape hatches that suppress one finding: //ascoma:allow-nondet,
//     //ascoma:allow-alloc, //ascoma:allow-unserialized,
//     //ascoma:allow-noctx — each REQUIRES a reason after the name; a
//     hatch without a reason does not suppress anything.
//
// An escape hatch suppresses diagnostics positioned on its own line or on
// the line directly below it, so both trailing-comment and line-above
// styles work, and a hatch written as the last line of a declaration's doc
// comment covers the declaration:
//
//	for k := range m { // ascoma-vet would flag this, but:
//	//ascoma:allow-nondet order folded into a commutative sum
//	for k := range m {
const directivePrefix = "//ascoma:"

// A DirectiveKind classifies a known directive name.
type DirectiveKind int

const (
	// Annotation opts a declaration in to a check (reason optional).
	Annotation DirectiveKind = iota
	// Hatch suppresses or cuts one finding and REQUIRES a reason; dirlint
	// fails the build on a reasonless hatch.
	Hatch
)

// KnownDirectives is the registry of every //ascoma: directive the suite
// understands. dirlint flags any name outside this table.
var KnownDirectives = map[string]DirectiveKind{
	// Annotations.
	"hotpath":         Annotation, // zero-alloc function (hotpathflow root)
	"stats":           Annotation, // stats struct (statsintegrity)
	"stats-serialize": Annotation, // golden-checksum serialization func
	"stats-finalize":  Annotation, // stats finalize func (arg: union type)

	// Escape hatches and graph cuts (reason required).
	"allow-nondet":       Hatch, // nondet
	"allow-alloc":        Hatch, // hotpathflow
	"allow-unserialized": Hatch, // statsintegrity
	"allow-noctx":        Hatch, // ctxflow
	"allow-errdrop":      Hatch, // errdrop
	"allow-hotcall":      Hatch, // hotpathflow: exempt one call site from the closure
	"hotpath-stop":       Hatch, // hotpathflow: cut the closure at this function
}

// A Directive is one parsed //ascoma: comment.
type Directive struct {
	Pos  token.Pos
	Name string // e.g. "hotpath", "allow-nondet"
	Arg  string // remainder of the line, trimmed; the reason for hatches
}

// ParseDirective parses a single comment, reporting ok=false for ordinary
// comments.
func ParseDirective(c *ast.Comment) (Directive, bool) {
	if !strings.HasPrefix(c.Text, directivePrefix) {
		return Directive{}, false
	}
	body := c.Text[len(directivePrefix):]
	name, arg, _ := strings.Cut(body, " ")
	name = strings.TrimSpace(name)
	if name == "" {
		return Directive{}, false
	}
	return Directive{Pos: c.Pos(), Name: name, Arg: strings.TrimSpace(arg)}, true
}

// DeclDirectives returns the directives attached to a declaration's doc
// comment.
func DeclDirectives(doc *ast.CommentGroup) []Directive {
	if doc == nil {
		return nil
	}
	var out []Directive
	for _, c := range doc.List {
		if d, ok := ParseDirective(c); ok {
			out = append(out, d)
		}
	}
	return out
}

// HasDirective reports whether the doc comment carries the named directive
// and returns its argument.
func HasDirective(doc *ast.CommentGroup, name string) (string, bool) {
	for _, d := range DeclDirectives(doc) {
		if d.Name == name {
			return d.Arg, true
		}
	}
	return "", false
}

type lineKey struct {
	file string
	line int
}

// A DirectiveIndex maps each source line to the //ascoma: directives
// written on it. The program loader builds one over every loaded file, and
// both kinds of pass answer Allowed from it.
type DirectiveIndex struct {
	fset  *token.FileSet
	lines map[lineKey][]Directive
}

// IndexDirectives indexes the //ascoma: comments of files by line.
func IndexDirectives(fset *token.FileSet, files []*ast.File) *DirectiveIndex {
	ix := &DirectiveIndex{fset: fset, lines: make(map[lineKey][]Directive)}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				d, ok := ParseDirective(c)
				if !ok {
					continue
				}
				pos := fset.Position(c.Pos())
				k := lineKey{pos.Filename, pos.Line}
				ix.lines[k] = append(ix.lines[k], d)
			}
		}
	}
	return ix
}

// Allowed reports whether a diagnostic at pos is suppressed by the named
// escape hatch. The hatch must carry a reason and must sit on the same line
// as pos or on the line directly above it.
func (ix *DirectiveIndex) Allowed(pos token.Pos, hatch string) bool {
	position := ix.fset.Position(pos)
	for _, line := range []int{position.Line, position.Line - 1} {
		for _, d := range ix.lines[lineKey{position.Filename, line}] {
			if d.Name == hatch && d.Arg != "" {
				return true
			}
		}
	}
	return false
}

// Allowed reports whether a diagnostic at pos is suppressed by the named
// escape hatch (see DirectiveIndex.Allowed).
func (p *Pass) Allowed(pos token.Pos, hatch string) bool {
	return p.Directives.Allowed(pos, hatch)
}
