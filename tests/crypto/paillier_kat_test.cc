// Known-answer test for the Paillier hot path and the modexp kernels.
//
// tests/crypto/goldens/paillier_kat.txt pins (m, r) -> ciphertext under a
// fixed key, plus modexp vectors, as produced by the current kernels. Any
// numerical drift in encryptWithR, decrypt/decryptCrt, powm or powmNaive
// fails byte-for-byte here — including drift that the differential suite
// cannot see because it changed fast and reference paths together.
// Regenerate with DPSS_REGEN_GOLDENS=1 (see the goldens README).
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "crypto/bigint.h"
#include "crypto/paillier.h"

namespace dpss::crypto {
namespace {

// Pinned 64-bit primes; changing them invalidates every vector.
const char* kP = "12499982984668941787";
const char* kQ = "13623918077753453983";

std::string goldenPath() {
  return std::string(DPSS_TESTS_DIR) + "/crypto/goldens/paillier_kat.txt";
}

struct KatInputs {
  std::vector<Bigint> ms;
  std::vector<Bigint> rs;
  struct Powm {
    Bigint base, exp, mod;
  };
  std::vector<Powm> powms;
};

// The vector *inputs* are fixed here; the golden file pins the outputs.
KatInputs makeInputs(const PaillierPublicKey& pub) {
  KatInputs in;
  in.ms = {Bigint(0), Bigint(1), Bigint(42), Bigint("170141183460469231731"),
           pub.maxPlaintext()};
  in.rs = {Bigint(2), Bigint(3), Bigint(65537), Bigint("982451653"),
           Bigint("18446744073709551557")};
  in.powms = {
      {Bigint(2), Bigint(0), Bigint("982451653")},
      {Bigint(0), Bigint(9), Bigint("982451653")},
      {Bigint(7), Bigint("18446744073709551615"), Bigint("982451653")},
      {Bigint("18446744073709551557"), Bigint("170141183460469231731"),
       pub.nSquared()},
      {Bigint(3), Bigint(1), Bigint(1)},
  };
  return in;
}

std::string render(const PaillierPublicKey& pub,
                   const PaillierPrivateKey& priv) {
  const KatInputs in = makeInputs(pub);
  std::ostringstream out;
  out << "# Paillier / modexp known-answer vectors. Regenerate with\n"
         "#   DPSS_REGEN_GOLDENS=1 ./build/tests/crypto_test \\\n"
         "#     --gtest_filter='PaillierKat.*'\n"
         "# (see tests/crypto/goldens/README.md). Inputs live in\n"
         "# tests/crypto/paillier_kat_test.cc; this file pins outputs.\n";
  out << "p " << Bigint(std::string(kP)).toString() << "\n";
  out << "q " << Bigint(std::string(kQ)).toString() << "\n";
  for (std::size_t i = 0; i < in.ms.size(); ++i) {
    for (std::size_t j = 0; j < in.rs.size(); ++j) {
      const Ciphertext c = pub.encryptWithR(in.ms[i], in.rs[j]);
      EXPECT_EQ(priv.decrypt(c).toString(), in.ms[i].toString());
      out << "kat m=" << in.ms[i].toString() << " r=" << in.rs[j].toString()
          << " c=" << c.value.toString() << "\n";
    }
  }
  for (const auto& pv : in.powms) {
    out << "powm base=" << pv.base.toString() << " exp=" << pv.exp.toString()
        << " mod=" << pv.mod.toString()
        << " out=" << Bigint::powm(pv.base, pv.exp, pv.mod).toString() << "\n";
  }
  return out.str();
}

Bigint field(const std::string& token, const std::string& key) {
  EXPECT_EQ(token.substr(0, key.size() + 1), key + "=") << token;
  return Bigint(token.substr(key.size() + 1));
}

TEST(PaillierKat, VectorsMatchGoldenFile) {
  PaillierPrivateKey priv{Bigint(std::string(kP)), Bigint(std::string(kQ))};
  const PaillierPublicKey& pub = priv.publicKey();

  if (std::getenv("DPSS_REGEN_GOLDENS") != nullptr) {
    std::ofstream out(goldenPath(), std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write " << goldenPath();
    out << render(pub, priv);
    GTEST_SKIP() << "regenerated " << goldenPath();
  }

  std::ifstream golden(goldenPath());
  ASSERT_TRUE(golden.good()) << "missing golden file " << goldenPath();

  std::size_t kats = 0, powms = 0;
  std::string line;
  while (std::getline(golden, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string tag;
    ls >> tag;
    if (tag == "p") {
      std::string v;
      ls >> v;
      EXPECT_EQ(v, kP) << "pinned prime drifted";
    } else if (tag == "q") {
      std::string v;
      ls >> v;
      EXPECT_EQ(v, kQ) << "pinned prime drifted";
    } else if (tag == "kat") {
      std::string mTok, rTok, cTok;
      ls >> mTok >> rTok >> cTok;
      const Bigint m = field(mTok, "m");
      const Bigint r = field(rTok, "r");
      const Bigint c = field(cTok, "c");
      EXPECT_EQ(pub.encryptWithR(m, r).value.toString(), c.toString())
          << line;
      EXPECT_EQ(pub.encryptGenericWithR(m, r).value.toString(), c.toString())
          << line;
      const Ciphertext ct{c};
      EXPECT_EQ(priv.decrypt(ct).toString(), m.toString()) << line;
      EXPECT_EQ(priv.decryptCrt(ct).toString(), m.toString()) << line;
      ++kats;
    } else if (tag == "powm") {
      std::string bTok, eTok, mTok, oTok;
      ls >> bTok >> eTok >> mTok >> oTok;
      const Bigint base = field(bTok, "base");
      const Bigint exp = field(eTok, "exp");
      const Bigint mod = field(mTok, "mod");
      const Bigint out = field(oTok, "out");
      EXPECT_EQ(Bigint::powm(base, exp, mod).toString(), out.toString())
          << line;
      EXPECT_EQ(Bigint::powmNaive(base, exp, mod).toString(), out.toString())
          << line;
      ++powms;
    } else {
      FAIL() << "unknown KAT line: " << line;
    }
  }
  // A truncated or emptied golden file must not silently pass.
  EXPECT_EQ(kats, 25u);
  EXPECT_EQ(powms, 5u);

  // The file is exactly what a regeneration would write today.
  std::ifstream again(goldenPath());
  std::stringstream whole;
  whole << again.rdbuf();
  EXPECT_EQ(whole.str(), render(pub, priv))
      << "golden drifted from current kernels; regenerate if intentional";
}

}  // namespace
}  // namespace dpss::crypto
