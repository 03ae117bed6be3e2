// Package thunk is the call-graph corpus for a closure stored in a
// func-typed field: a queue runs a task handed to it at construction, so
// the closure is connected to the //ascoma:hotpath root only through the
// field — exactly the edge the engine's flow propagation exists to find.
package thunk

// queue runs the task stored at construction from its loop.
type queue struct{ task func(int) }

func newQueue(task func(int)) *queue { return &queue{task: task} }

// loop is the root; whatever reached q.task runs here.
//
//ascoma:hotpath
func (q *queue) loop() { q.task(0) }

// build wires the thunk.
func build(n *int) *queue {
	return newQueue(func(i int) { *n += i })
}
