package main

import (
	"strings"
	"testing"
)

func TestReportSpeedup(t *testing.T) {
	for _, tc := range []struct {
		name                    string
		tuned, def, machineTime float64
		want                    []string
		reject                  []string
	}{
		{
			name: "trace shares no collective with the tuned set",
			want: []string{"application AMG: no tuned collective appears in the trace"},
			// 0/0: used to print "NaNx speedup".
			reject: []string{"NaN", "speedup", "break-even"},
		},
		{
			name:  "tuned wins",
			tuned: 2e6, def: 3e6, machineTime: 3.6e9,
			want: []string{"tuned 2.00 s vs default 3.00 s (1.500x speedup)", "break-even application runtime: 3.00 hours"},
		},
		{
			name:  "default already optimal",
			tuned: 2e6, def: 2e6, machineTime: 3.6e9,
			want:   []string{"(1.000x speedup)", "default selections were already optimal"},
			reject: []string{"break-even"},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var b strings.Builder
			reportSpeedup(&b, "AMG", tc.tuned, tc.def, tc.machineTime)
			for _, w := range tc.want {
				if !strings.Contains(b.String(), w) {
					t.Errorf("output %q lacks %q", b.String(), w)
				}
			}
			for _, r := range tc.reject {
				if strings.Contains(b.String(), r) {
					t.Errorf("output %q contains %q", b.String(), r)
				}
			}
		})
	}
}
