package figures

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"

	"flowzip/internal/netbench"
)

// memStudyGolden is the SHA-256 of the memory study's rendered tables — Figure
// 2's, the access summary, Figure 3 and the cache ablation — and of Figure 2's
// points at full precision, at 1 500 flows of the smoke configuration, per
// kernel. The digests were recorded before the study was streamed; a change
// that moves any digit of any table fails here.
var memStudyGolden = map[netbench.KernelKind]string{
	netbench.KindRoute: "e219d383d0f772d8c7f30c4351f80ce57adca9eb3e5d8ab4a2d2c44a89fec7c8",
	netbench.KindNAT:   "b531eb6e2ac63c950758615500b817b7ebf3278d06c8e3ee5753cd9ec6298b3c",
	netbench.KindRTR:   "3035203ddb462e186213b79dbf82c1ebfc4ceb85b1ad11f4b83e641266e8dc2a",
}

// TestMemStudyGolden pins every number the memory study prints.
func TestMemStudyGolden(t *testing.T) {
	for _, kind := range []netbench.KernelKind{netbench.KindRoute, netbench.KindNAT, netbench.KindRTR} {
		cfg := smokeConfig()
		cfg.Flows = 1500
		cfg.Kernel = kind
		study, err := RunMemStudy(cfg)
		if err != nil {
			t.Fatal(err)
		}
		cache, err := CacheAblation(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		for _, tbl := range []interface{ String() string }{study.Fig2().Table(), study.AccessSummaryTable(), study.Fig3(), cache} {
			b.WriteString(tbl.String())
		}
		fmt.Fprint(&b, study.Fig2().Series)
		sum := sha256.Sum256([]byte(b.String()))
		if got := hex.EncodeToString(sum[:]); got != memStudyGolden[kind] {
			t.Errorf("%v: tables hash to %s, want %s:\n%s", kind, got, memStudyGolden[kind], b.String())
		}
	}
}
