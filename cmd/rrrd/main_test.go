package main

import (
	"strings"
	"testing"
)

func TestValidateWorkerFlags(t *testing.T) {
	cases := []struct {
		batchWorkers int
		wantErr      string
	}{
		{1, ""},
		{4, ""},
		// Zero means "auto" (GOMAXPROCS).
		{0, ""},
		{-7, "batch-workers"},
	}
	for _, tc := range cases {
		err := validateWorkerFlags(tc.batchWorkers)
		if tc.wantErr == "" {
			if err != nil {
				t.Errorf("validateWorkerFlags(%d) = %v, want nil", tc.batchWorkers, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("validateWorkerFlags(%d) = %v, want error mentioning %q", tc.batchWorkers, err, tc.wantErr)
		}
	}
}
