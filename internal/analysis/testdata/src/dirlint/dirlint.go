// Package dirlint is the test corpus for the directive auditor: the
// //ascoma: language itself must be spelled correctly and every escape
// hatch must carry a reason. Diagnostics land on the directive comment's
// own line, so the expectations use the block form documented in
// analysistest.
package dirlint

// A typo in the directive name would silently disable a check, and a
// directive of a deleted analyzer silences nothing.
//
/* want `unknown directive //ascoma:allow-nondt` */ //ascoma:allow-nondt
func typo()                                         {}

/* want `unknown directive //ascoma:hotpath` */ //ascoma:hotpath
func retired()                                  {}

/* want `escape hatch //ascoma:allow-errdrop requires a reason` */ //ascoma:allow-errdrop
func reasonless()                                                  {}

//ascoma:allow-errdrop the caller logs the failure
func justified() {}
