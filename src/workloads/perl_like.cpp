// perl stand-in: tokenizing + hashing text into an associative table.
//
// perl (running scrabbl.pl) spends its time scanning strings byte-by-byte
// and banging on hash tables. This kernel walks a baked-in 2 KiB text of
// random words, computes each word's rolling hash (shift-add, as real
// interpreters do), and probes/updates an open-addressing hash table whose
// counts persist across iterations. Byte loads, variable-length inner
// loops and probe chains give a mixed, moderately-predictable profile.
#include <string>
#include <vector>

#include "common/strutil.h"
#include "workloads/builder.h"
#include "workloads/workload.h"

namespace reese::workloads {

Workload make_perl_like(const WorkloadOptions& options) {
  SplitMix64 rng(options.seed ^ 0x9E71);

  // ~2 KiB of words over a 96-word vocabulary so hash hits dominate after
  // warmup (like scrabble dictionary lookups).
  std::vector<std::string> vocabulary;
  for (unsigned i = 0; i < 96; ++i) {
    std::string word;
    const usize length = 2 + rng.next_below(8);
    for (usize j = 0; j < length; ++j) {
      word.push_back(static_cast<char>('a' + rng.next_below(26)));
    }
    vocabulary.push_back(word);
  }
  std::vector<u8> text;
  while (text.size() < 2000) {
    const std::string& word = vocabulary[rng.next_below(vocabulary.size())];
    text.insert(text.end(), word.begin(), word.end());
    text.push_back(' ');
  }
  text.push_back(0);  // NUL terminator
  text.resize(2048, 0);

  std::string source;
  source += program_shell("kernel", options.iterations);
  source += R"(
# kernel(a0 = iteration): scan the text from a rotating start offset,
# hash every word, count it in the table.
kernel:
  la   t0, text
  la   t1, htab
  li   t6, 0                # checksum
  li   t2, 53               # start = (iter*53) & 1023
  mul  t2, a0, t2
  andi t2, t2, 1023
  add  t0, t0, t2
scan:
  lbu  t3, 0(t0)
  beqz t3, scan_done
  li   a1, 32               # ' '
  beq  t3, a1, skip_space
  li   a2, 0                # rolling hash h = h*31 + c (shift-add)
word:
  slli a3, a2, 5
  sub  a3, a3, a2
  add  a2, a3, t3
  addi t0, t0, 1
  lbu  t3, 0(t0)
  beqz t3, word_end
  bne  t3, a1, word
word_end:
  li   a4, 8                # linear probes remaining
  andi a3, a2, 511
probe:
  slli a5, a3, 4
  add  a5, a5, t1
  ld   a6, 0(a5)
  beq  a6, a2, hit
  beqz a6, insert
  addi a3, a3, 1
  andi a3, a3, 511
  addi a4, a4, -1
  bnez a4, probe
  j    scan                 # neighbourhood full: drop the word
hit:
  ld   a7, 8(a5)
  addi a7, a7, 1
  sd   a7, 8(a5)
  add  t6, t6, a7
  j    scan
insert:
  sd   a2, 0(a5)
  li   a7, 1
  sd   a7, 8(a5)
  addi t6, t6, 1
  j    scan
skip_space:
  addi t0, t0, 1
  j    scan
scan_done:
  out  t6
  ret

  .data
)";
  DataTables tables;
  source += tables.byte_table("text", text);
  source += "  .align 8\nhtab: .space 8192\n";  // 512 slots x {hash, count}

  Workload workload;
  workload.name = "perl";
  workload.mimics = "SPECint95 134.perl (scrabbl.pl)";
  workload.description =
      "tokenize 2KiB of words, rolling-hash each, probe/update a 512-slot "
      "open-addressing table";
  workload.program = assemble_or_die(source, "perl_like", tables);
  return workload;
}

}  // namespace reese::workloads
