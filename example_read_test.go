package flowzip_test

import (
	"bytes"
	"fmt"
	"time"

	"flowzip"
)

// ExampleReader opens an indexed archive through the seekable read path and
// decodes every flow without ever holding the whole container in an Archive
// value.
func ExampleReader() {
	cfg := flowzip.DefaultWebConfig()
	cfg.Seed = 11
	cfg.Flows = 200
	cfg.Duration = 2 * time.Second
	tr := flowzip.GenerateWeb(cfg)

	archive, _ := flowzip.Compress(tr, flowzip.DefaultOptions())
	archive.Index = flowzip.IndexConfig{Enabled: true}
	var buf bytes.Buffer
	archive.Encode(&buf)

	r, err := flowzip.OpenArchive(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	defer r.Close()

	back, err := r.ExtractFlows(flowzip.FlowFilter{})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	is := r.IndexStats()
	fmt.Println("flows:", r.Flows())
	fmt.Println("groups:", is.Groups)
	fmt.Println("packets preserved:", back.Len() == tr.Len())
	// Output:
	// flows: 200
	// groups: 1
	// packets preserved: true
}

// ExampleReader_ExtractFlows decodes only the flows of one server address
// from an indexed archive, reading a fraction of the container's body.
func ExampleReader_ExtractFlows() {
	cfg := flowzip.DefaultWebConfig()
	cfg.Seed = 12
	cfg.Flows = 2000
	cfg.Duration = 10 * time.Second
	tr := flowzip.GenerateWeb(cfg)

	archive, _ := flowzip.Compress(tr, flowzip.DefaultOptions())
	archive.Index = flowzip.IndexConfig{Enabled: true, GroupSize: 64}
	var buf bytes.Buffer
	archive.Encode(&buf)

	r, err := flowzip.OpenArchive(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	defer r.Close()

	sub, err := r.ExtractFlows(flowzip.FlowFilter{Prefix: archive.Addresses[0], PrefixLen: 32})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("selective decode packets:", sub.Len())
	fmt.Println("subset of full trace:", sub.Len() < tr.Len())
	fmt.Println("read under a tenth of the body:", 10*r.Stats().BodyBytesRead < r.IndexStats().BodyBytes)
	// Output:
	// selective decode packets: 8
	// subset of full trace: true
	// read under a tenth of the body: true
}
