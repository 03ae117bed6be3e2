// Package dirlint is the test corpus for the directive auditor: the
// //ascoma: language itself must be spelled correctly and every escape
// hatch must carry a reason. Diagnostics land on the directive comment's
// own line, so the expectations use the block form documented in
// analysistest.
package dirlint

// A correctly spelled annotation needs no argument.
//
//ascoma:hotpath
func hot() {}

// A typo in the directive name would silently disable a check.
//
/* want `unknown directive //ascoma:hotpah` */ //ascoma:hotpah
func typo()                                    {}

/* want `escape hatch //ascoma:allow-alloc requires a reason` */ //ascoma:allow-alloc
func reasonless() {}

//ascoma:allow-alloc the buffer is reused across calls
func justified() {}
