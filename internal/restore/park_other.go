//go:build !linux

package restore

import "time"

// parker parks nothing off Linux: the worker yields with runtime.Gosched.
type parker struct{}

func newParker() *parker { return &parker{} }

func (*parker) park(time.Duration) bool { return false }

func (*parker) close() {}
