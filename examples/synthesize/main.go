// Synthesize: use a compressed archive as a traffic model — the paper's
// future-work "synthetic packet trace generator based on the described
// methodology". Compress a small captured trace, then generate a 5x larger
// synthetic trace with the same template mix, address popularity and RTTs,
// and show that its statistical profile matches the source.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"flowzip"
	"flowzip/internal/flow"
	"flowzip/internal/stats"
)

func main() {
	log.SetFlags(0)
	flag.Parse()
	if flag.NArg() > 0 {
		log.Fatalf("unexpected arguments %q: this example is configured by editing its source", flag.Args())
	}

	// The "captured" source trace.
	cfg := flowzip.DefaultWebConfig()
	cfg.Seed = 9
	cfg.Flows = 2000
	cfg.Duration = 15 * time.Second
	source := flowzip.GenerateWeb(cfg)

	// Compress it: the archive is now a compact traffic model (~5% of the
	// trace bytes).
	archive, err := flowzip.Compress(source, flowzip.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}

	// Generate a 5x larger trace from the model at 2x the offered load.
	synthCfg := flowzip.SynthConfig{Seed: 7, Flows: 10000, Scale: 2.0}
	synth, err := flowzip.Synthesize(archive, synthCfg)
	if err != nil {
		log.Fatal(err)
	}

	t := &stats.Table{
		Title:   "source vs synthesized",
		Headers: []string{"trace", "flows", "packets", "mean len", "flows<51pkt", "duration"},
	}
	for _, tr := range []*flowzip.Trace{source, synth} {
		d := flow.MeasureLengths(tr.Packets)
		t.AddRow(tr.Name,
			fmt.Sprintf("%d", d.TotalFlows),
			fmt.Sprintf("%d", tr.Len()),
			fmt.Sprintf("%.2f", d.MeanLength()),
			fmt.Sprintf("%.1f%%", 100*d.FlowFracBelow(51)),
			tr.Duration().Round(time.Millisecond).String())
	}
	t.Render(os.Stdout)

	// The synthetic trace recompresses into (at most) the same template
	// library — it is drawn from the model.
	a2, err := flowzip.Compress(synth, flowzip.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ntemplates: source archive %d, synthetic recompression %d\n",
		len(archive.ShortTemplates), len(a2.ShortTemplates))
}
