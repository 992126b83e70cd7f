package obs

import (
	"context"
	"log/slog"
	"os"
)

// nopHandler drops every record. (slog.DiscardHandler needs Go 1.24;
// this module still targets 1.23.)
type nopHandler struct{}

func (nopHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (nopHandler) Handle(context.Context, slog.Record) error { return nil }
func (nopHandler) WithAttrs([]slog.Attr) slog.Handler        { return nopHandler{} }
func (nopHandler) WithGroup(string) slog.Handler             { return nopHandler{} }

// NopLogger returns a logger that discards everything.
func NopLogger() *slog.Logger {
	return slog.New(nopHandler{})
}

// NewLogger returns a text logger on stderr with the given component
// attached to every record, e.g. component=flowzipd.
func NewLogger(component string) *slog.Logger {
	return slog.New(slog.NewTextHandler(os.Stderr, nil)).With("component", component)
}
