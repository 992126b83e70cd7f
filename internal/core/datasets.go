package core

import (
	"fmt"
	"os"
	"path/filepath"

	"flowzip/internal/wire"
)

// The paper describes the compressed trace as *four datasets*. Encode packs
// them into one container file for convenience; this file provides the
// literal four-file layout — one file per dataset plus a small manifest —
// for interoperability with tooling that processes datasets independently.
//
//	<dir>/manifest.fzm           options + source metadata
//	<dir>/short-flows-template
//	<dir>/long-flows-template
//	<dir>/address
//	<dir>/time-seq

// Dataset file names inside an archive directory.
const (
	ManifestFile      = "manifest.fzm"
	ShortTemplateFile = "short-flows-template"
	LongTemplateFile  = "long-flows-template"
	AddressFile       = "address"
	TimeSeqFile       = "time-seq"
)

// SaveDatasets writes the archive as the paper's four datasets under dir
// (created if missing). Each file holds exactly the bytes of the matching
// container section (sections.go); the manifest is the version-1 header.
func (a *Archive) SaveDatasets(dir string) error {
	if err := a.Validate(); err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	for _, f := range []struct {
		name string
		data []byte
	}{
		{ManifestFile, appendHeader(nil, a, 1)},
		{ShortTemplateFile, appendShortTemplates(nil, a.ShortTemplates, nil)},
		{LongTemplateFile, appendLongTemplates(nil, a.LongTemplates, nil)},
		{AddressFile, appendAddresses(nil, a.Addresses)},
		{TimeSeqFile, appendTimeSeq(nil, sortedTimeSeq(a.TimeSeq), nil)},
	} {
		if err := os.WriteFile(filepath.Join(dir, f.name), f.data, 0o666); err != nil {
			return fmt.Errorf("core: %w", err)
		}
	}
	return nil
}

// LoadDatasets reads the four-dataset layout back into an Archive, whose
// template vectors alias the bytes read from the two template files.
func LoadDatasets(dir string) (*Archive, error) {
	var files [5]wire.Cursor
	for i, name := range [...]string{ManifestFile, ShortTemplateFile, LongTemplateFile, AddressFile, TimeSeqFile} {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		files[i] = wire.NewCursor(b, ErrBadArchive)
	}
	a, version, err := decodeSections(&files[0], &files[1], &files[2], &files[3], &files[4])
	if err != nil {
		return nil, err
	}
	if version != 1 {
		return nil, fmt.Errorf("%w: manifest version %d", ErrBadArchive, version)
	}
	return a, nil
}
