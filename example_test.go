package flowzip_test

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"flowzip"
)

// ExampleCompress demonstrates the basic compress/decompress cycle.
func ExampleCompress() {
	cfg := flowzip.DefaultWebConfig()
	cfg.Seed = 1
	cfg.Flows = 100
	cfg.Duration = 2 * time.Second
	tr := flowzip.GenerateWeb(cfg)

	archive, err := flowzip.Compress(tr, flowzip.DefaultOptions())
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	back, err := flowzip.Decompress(archive)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("flows:", archive.Flows())
	fmt.Println("packets preserved:", back.Len() == tr.Len())
	// Output:
	// flows: 100
	// packets preserved: true
}

// ExampleArchive_Encode shows archive persistence through the binary
// container.
func ExampleArchive_Encode() {
	cfg := flowzip.DefaultWebConfig()
	cfg.Seed = 2
	cfg.Flows = 50
	cfg.Duration = time.Second
	tr := flowzip.GenerateWeb(cfg)
	archive, _ := flowzip.Compress(tr, flowzip.DefaultOptions())

	var buf bytes.Buffer
	if _, err := archive.Encode(&buf); err != nil {
		fmt.Println("error:", err)
		return
	}
	loaded, err := flowzip.DecodeArchive(&buf)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("round trip flows:", loaded.Flows() == archive.Flows())
	// Output:
	// round trip flows: true
}

// ExamplePipeline_Compress compresses a packet stream without materializing
// it, and shows the archive is byte-identical to the in-memory path.
func ExamplePipeline_Compress() {
	cfg := flowzip.DefaultWebConfig()
	cfg.Seed = 4
	cfg.Flows = 150
	cfg.Duration = 2 * time.Second

	// Any PacketSource works: here the bounded-memory Web generator.
	p, err := flowzip.New(flowzip.DefaultOptions(), flowzip.Config{Workers: 4})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	archive, err := p.Compress(flowzip.StreamWeb(cfg, 256))
	if err != nil {
		fmt.Println("error:", err)
		return
	}

	serial, _ := flowzip.Compress(flowzip.GenerateWeb(cfg), flowzip.DefaultOptions())
	var sb, tb bytes.Buffer
	archive.Encode(&sb)
	serial.Encode(&tb)
	fmt.Println("flows:", archive.Flows())
	fmt.Println("identical to serial:", bytes.Equal(sb.Bytes(), tb.Bytes()))
	// Output:
	// flows: 150
	// identical to serial: true
}

// ExampleOpenPcap streams a capture file through the compressor in bounded
// memory.
func ExampleOpenPcap() {
	dir, err := os.MkdirTemp("", "flowzip-example")
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	defer os.RemoveAll(dir)

	cfg := flowzip.DefaultWebConfig()
	cfg.Seed = 6
	cfg.Flows = 80
	cfg.Duration = time.Second
	path := filepath.Join(dir, "web.pcap")
	if err := flowzip.GenerateWeb(cfg).SaveFile(path); err != nil {
		fmt.Println("error:", err)
		return
	}

	src, err := flowzip.OpenPcap(path)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	defer src.Close()
	p, err := flowzip.New(flowzip.DefaultOptions(), flowzip.Config{})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	archive, err := p.Compress(src)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("flows:", archive.Flows())
	// Output:
	// flows: 80
}

// ExampleSynthesize generates new traffic from an archive's model.
func ExampleSynthesize() {
	cfg := flowzip.DefaultWebConfig()
	cfg.Seed = 3
	cfg.Flows = 200
	cfg.Duration = 5 * time.Second
	tr := flowzip.GenerateWeb(cfg)
	archive, _ := flowzip.Compress(tr, flowzip.DefaultOptions())

	synth, err := flowzip.Synthesize(archive, flowzip.SynthConfig{Seed: 1, Flows: 400, Scale: 1})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("synthesized more packets:", synth.Len() > tr.Len())
	// Output:
	// synthesized more packets: true
}

// ExampleNew shows the pipeline entry point: one validated configuration
// applied to any input shape, byte-identical to serial Compress.
func ExampleNew() {
	cfg := flowzip.DefaultWebConfig()
	cfg.Seed = 4
	cfg.Flows = 100
	cfg.Duration = 2 * time.Second
	tr := flowzip.GenerateWeb(cfg)

	p, err := flowzip.New(flowzip.DefaultOptions(), flowzip.Config{Workers: 4})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fromStream, err := p.Compress(flowzip.TraceSource(tr, 0))
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	serial, _ := flowzip.Compress(tr, flowzip.DefaultOptions())
	var a, b bytes.Buffer
	fromStream.Encode(&a)
	serial.Encode(&b)
	fmt.Println("byte-identical to serial:", bytes.Equal(a.Bytes(), b.Bytes()))
	// Output:
	// byte-identical to serial: true
}

// ExampleNewDaemon runs an in-process flowzipd: one tenant streams a trace
// in, the daemon flushes it as that tenant's archive, and a graceful
// shutdown drains everything.
func ExampleNewDaemon() {
	dir, err := os.MkdirTemp("", "flowzipd")
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	defer os.RemoveAll(dir)

	d, err := flowzip.NewDaemon(flowzip.DaemonConfig{Dir: dir, Workers: 2})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	cfg := flowzip.DefaultWebConfig()
	cfg.Seed = 5
	cfg.Flows = 60
	cfg.Duration = 2 * time.Second
	tr := flowzip.GenerateWeb(cfg)

	sum, err := flowzip.Ingest(d.Addr().String(), "tenant-a",
		flowzip.TraceSource(tr, 0), flowzip.DefaultOptions(), flowzip.NetConfig{})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	if err := d.Shutdown(context.Background()); err != nil {
		fmt.Println("error:", err)
		return
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "tenant-a", "*.fz"))
	fmt.Println("packets ingested:", sum.Packets == int64(tr.Len()))
	fmt.Println("archives written:", len(segs))
	// Output:
	// packets ingested: true
	// archives written: 1
}
