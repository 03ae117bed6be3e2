// Custom workload: drive the simulator with your own reference generator.
//
//	go run ./examples/customworkload
//
// This builds a producer/consumer pipeline workload from scratch on
// workload.Programs with the workload package's program DSL — node 0
// produces batches into its own section, every other node repeatedly
// consumes (reads) them — records it to a trace, and runs the trace on all
// five architectures; the simulator reads the trace's streams through the
// same chunk window as compiled ones. Single-writer
// multi-reader data is the best case for page-grained caching, so the
// S-COMA-style architectures win decisively.
package main

import (
	"fmt"
	"log"

	"ascoma"
	"ascoma/internal/params"
	"ascoma/internal/workload"
)

// newPipeline builds a Generator with one producer node and nodes-1
// consumer nodes. workload.Programs supplies the Generator methods: section
// i is pages pages homed at node i, and each node replays its own Program.
func newPipeline(nodes, pages, rounds int) *workload.Programs {
	g := workload.NewPrograms("pipeline", nodes, pages, 0)
	batch := g.Section(0)
	for n := 0; n < nodes; n++ {
		pr := g.Program(n)
		for round := 0; round < rounds; round++ {
			if n == 0 {
				// Produce: write the batch into the producer's section.
				pr.WalkRW(batch, int64(pages)*params.PageSize, params.LineSize, 1, 1, 4)
			}
			pr.Barrier(2 * round)
			if n != 0 {
				// Consume: two block-strided read passes over the batch.
				pr.Walk(batch, int64(pages)*params.PageSize, params.BlockSize, 2, workload.Read, 4)
			}
			pr.Barrier(2*round + 1)
		}
	}
	return g
}

func main() {
	gen := newPipeline(8, 24, 6)

	// Record once so every architecture replays the identical streams.
	trace := workload.Record(gen)
	fmt.Printf("pipeline workload: %d nodes, %d batch pages, %d rounds, %d refs on node 1\n\n",
		gen.Nodes(), gen.HomePagesPerNode(), 6, len(trace.Refs[1]))

	var base int64
	for _, arch := range []ascoma.Arch{ascoma.CCNUMA, ascoma.SCOMA, ascoma.RNUMA, ascoma.VCNUMA, ascoma.ASCOMA} {
		res, err := ascoma.RunGenerator(ascoma.Config{Arch: arch, Pressure: 40}, trace)
		if err != nil {
			log.Fatal(err)
		}
		if arch == ascoma.CCNUMA {
			base = res.ExecTime
		}
		fmt.Printf("%-8v exec=%9d cycles  (%.2fx CC-NUMA)\n", arch, res.ExecTime,
			float64(res.ExecTime)/float64(base))
	}
	fmt.Println("\nEvery consumer rereads the producer's pages each round: a page-grained")
	fmt.Println("cache absorbs all but the first read, while CC-NUMA refetches remotely.")
}
