package analysis

import (
	"go/ast"
	"go/token"
	"strings"
)

// Directives are magic comments of the form
//
//	//ascoma:<name> <reason>
//
// (no space after //, like //go: directives). Each is an escape hatch that
// suppresses one finding of one analyzer, and each REQUIRES a reason after
// the name: a hatch without a reason suppresses nothing, and dirlint fails
// the build on it.
//
// A hatch suppresses diagnostics positioned on its own line or on the line
// directly below it, so both trailing-comment and line-above styles work:
//
//	//ascoma:allow-nondet order folded into a commutative sum
//	for k := range m {
const directivePrefix = "//ascoma:"

// KnownDirectives is the set of //ascoma: directives the suite
// understands. dirlint flags any name outside it.
var KnownDirectives = map[string]bool{
	"allow-nondet":  true, // nondet
	"allow-errdrop": true, // errdrop
}

// A Directive is one parsed //ascoma: comment.
type Directive struct {
	Pos  token.Pos
	Name string // e.g. "allow-nondet"
	Arg  string // remainder of the line, trimmed: the reason
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

type lineKey struct {
	file string
	line int
}

// A DirectiveIndex maps each source line to the //ascoma: directives
// written on it. The program loader builds one over every loaded file, and
// every Pass answers Allowed from it.
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
