package sim

import (
	"errors"
	"testing"

	"pathfinder/internal/trace"
)

func TestConfigValidateValid(t *testing.T) {
	tests := []struct {
		name string
		cfg  Config
	}{
		{"default", DefaultConfig()},
		{"scaled", ScaledConfig()},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := tt.cfg.Validate(); err != nil {
				t.Fatalf("Validate() unexpected error: %v", err)
			}
		})
	}
}

func TestConfigValidateInvalid(t *testing.T) {
	tests := []struct {
		name        string
		mutate      func(*Config)
		expectedErr error
	}{
		{"l1_sets_0", func(c *Config) { c.L1Sets = 0 }, ErrCacheSets},
		{"llc_sets_negative", func(c *Config) { c.LLCSets = -4 }, ErrCacheSets},
		{"l2_ways_0", func(c *Config) { c.L2Ways = 0 }, ErrCacheWays},
		{"llc_ways_65535", func(c *Config) { c.LLCWays = 65535 }, ErrCacheWays},
		{"l1_lat_0", func(c *Config) { c.L1Lat = 0 }, ErrLatency},
		{"llc_lat_negative", func(c *Config) { c.LLCLat = -1 }, ErrLatency},
		{"width_0", func(c *Config) { c.Width = 0 }, ErrWidth},
		{"rob_0", func(c *Config) { c.ROB = 0 }, ErrWidth},
		{"dram_banks_0", func(c *Config) { c.DRAM.Banks = 0 }, ErrDRAM},
		{"dram_read_queue_0", func(c *Config) { c.DRAM.ReadQueue = 0 }, ErrDRAM},
		{"dram_row_blocks_0", func(c *Config) { c.DRAM.RowBlocks = 0 }, ErrDRAM},
	}
	accs := seqTrace(100, 4)
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := ScaledConfig()
			tt.mutate(&cfg)
			if err := cfg.Validate(); !errors.Is(err, tt.expectedErr) {
				t.Fatalf("Validate() error = %v, want %v", err, tt.expectedErr)
			}
			// Every run entry point rejects the machine with the same
			// error instead of panicking in a constructor.
			if _, err := Run(cfg, accs, nil); !errors.Is(err, tt.expectedErr) {
				t.Errorf("Run error = %v, want %v", err, tt.expectedErr)
			}
			if _, err := RunStream(cfg, trace.NewSliceSource(accs), nil); !errors.Is(err, tt.expectedErr) {
				t.Errorf("RunStream error = %v, want %v", err, tt.expectedErr)
			}
			if _, err := NewEngine(cfg).Run(accs, nil); !errors.Is(err, tt.expectedErr) {
				t.Errorf("Engine.Run error = %v, want %v", err, tt.expectedErr)
			}
		})
	}
}
