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

// datasetFiles names the file of each section, in container order.
var datasetFiles = [...]string{ManifestFile, ShortTemplateFile, LongTemplateFile, AddressFile, TimeSeqFile}

// SaveDatasets writes the archive as the paper's four datasets under dir
// (created if missing). Each file holds exactly the bytes of the matching
// container section (sections.go); the manifest is the header — the column
// tables included — of the container without a footer index.
func (a *Archive) SaveDatasets(dir string) error {
	if err := a.Validate(); err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	_, err := a.encodeSections(false, func(section int, b []byte) error {
		if err := os.WriteFile(filepath.Join(dir, datasetFiles[section]), b, 0o666); err != nil {
			return fmt.Errorf("core: %w", err)
		}
		return nil
	})
	return err
}

// LoadDatasets reads the four-dataset layout back into an Archive: manifest
// version 9, which SaveDatasets writes. Any other manifest version returns
// ErrBadArchive.
func LoadDatasets(dir string) (*Archive, error) {
	var files [len(datasetFiles)]wire.Cursor
	for i, name := range datasetFiles {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		files[i] = wire.NewCursor(b, ErrBadArchive)
	}
	a, _, err := decodeSections(&files[0], &files[1], &files[2], &files[3], &files[4])
	if err != nil {
		return nil, err
	}
	if a.Index.Enabled {
		return nil, fmt.Errorf("%w: manifest of a container with a footer index", ErrBadArchive)
	}
	return a, nil
}
