package mdst_test

import (
	"crypto/sha256"
	"fmt"
	"slices"
	"testing"

	"mdegst/internal/fr"
	"mdegst/internal/graph"
	"mdegst/internal/mdst"
	"mdegst/internal/sim"
	"mdegst/internal/spanning"
	"mdegst/internal/tree"
)

// outcomeDigests pins what the improvement reaches, not how: per case a
// SHA-256 of the final tree's sorted undirected edge set, its swap count
// and its final degree. Rounds, root placement and message counts are
// deliberately left out, so a change to how the protocol schedules its
// rounds (which nodes it retries, where the root ends up) must keep these
// digests while any change to the exchanges it applies breaks them.
var outcomeDigests = map[string]string{
	"ba-12/s0/random/run-hybrid":          "cb8d2f392a93fb484955d8f1d806975a1204d2c33b671603e33cda29727594a2",
	"ba-12/s0/random/run-single":          "cb8d2f392a93fb484955d8f1d806975a1204d2c33b671603e33cda29727594a2",
	"ba-12/s0/random/twin-hybrid":         "cb8d2f392a93fb484955d8f1d806975a1204d2c33b671603e33cda29727594a2",
	"ba-12/s0/random/twin-multi":          "cb8d2f392a93fb484955d8f1d806975a1204d2c33b671603e33cda29727594a2",
	"ba-12/s0/random/twin-single":         "cb8d2f392a93fb484955d8f1d806975a1204d2c33b671603e33cda29727594a2",
	"ba-12/s0/star/run-hybrid":            "d5705750873ed2ef89950b3302305bf3ce1a3530f3a51ee8f23c220d8996b7f3",
	"ba-12/s0/star/run-single":            "571f4fea66a569ab2a517f9e87c3b586aefb1830d456aac7c1c584a90cdeb74c",
	"ba-12/s0/star/twin-hybrid":           "d5705750873ed2ef89950b3302305bf3ce1a3530f3a51ee8f23c220d8996b7f3",
	"ba-12/s0/star/twin-multi":            "d5705750873ed2ef89950b3302305bf3ce1a3530f3a51ee8f23c220d8996b7f3",
	"ba-12/s0/star/twin-single":           "571f4fea66a569ab2a517f9e87c3b586aefb1830d456aac7c1c584a90cdeb74c",
	"ba-12/s1/random/run-hybrid":          "b968fe04f55cb6070191e3071179b3d41d16f9a4693c67c95dd3c20d5f0ef5af",
	"ba-12/s1/random/run-single":          "b968fe04f55cb6070191e3071179b3d41d16f9a4693c67c95dd3c20d5f0ef5af",
	"ba-12/s1/random/twin-hybrid":         "b968fe04f55cb6070191e3071179b3d41d16f9a4693c67c95dd3c20d5f0ef5af",
	"ba-12/s1/random/twin-multi":          "478868f6327394950701281ecc450cf222e8ca6afbd189d90b3504d7ce40803a",
	"ba-12/s1/random/twin-single":         "b968fe04f55cb6070191e3071179b3d41d16f9a4693c67c95dd3c20d5f0ef5af",
	"ba-12/s1/star/run-hybrid":            "e5a4aab8067c2dd8d5e23bbc31381641dea2a540cee56a702a444c7d90543c99",
	"ba-12/s1/star/run-single":            "e5a4aab8067c2dd8d5e23bbc31381641dea2a540cee56a702a444c7d90543c99",
	"ba-12/s1/star/twin-hybrid":           "e5a4aab8067c2dd8d5e23bbc31381641dea2a540cee56a702a444c7d90543c99",
	"ba-12/s1/star/twin-multi":            "e5a4aab8067c2dd8d5e23bbc31381641dea2a540cee56a702a444c7d90543c99",
	"ba-12/s1/star/twin-single":           "e5a4aab8067c2dd8d5e23bbc31381641dea2a540cee56a702a444c7d90543c99",
	"ba-12/s2/random/run-hybrid":          "db12a99cbb35ac3fd30644e14132090db90ae27aed48ccbfb38fd0e2079c99dd",
	"ba-12/s2/random/run-single":          "db12a99cbb35ac3fd30644e14132090db90ae27aed48ccbfb38fd0e2079c99dd",
	"ba-12/s2/random/twin-hybrid":         "db12a99cbb35ac3fd30644e14132090db90ae27aed48ccbfb38fd0e2079c99dd",
	"ba-12/s2/random/twin-multi":          "2f67b2909db7c065ff89cec4c9fcc08dc0250133168126a22cbce94845c33271",
	"ba-12/s2/random/twin-single":         "db12a99cbb35ac3fd30644e14132090db90ae27aed48ccbfb38fd0e2079c99dd",
	"ba-12/s2/star/run-hybrid":            "5e51123b8e50fac3e06107bca1909287fde5750d34794d253b847236d375d983",
	"ba-12/s2/star/run-single":            "5e51123b8e50fac3e06107bca1909287fde5750d34794d253b847236d375d983",
	"ba-12/s2/star/twin-hybrid":           "5e51123b8e50fac3e06107bca1909287fde5750d34794d253b847236d375d983",
	"ba-12/s2/star/twin-multi":            "5e51123b8e50fac3e06107bca1909287fde5750d34794d253b847236d375d983",
	"ba-12/s2/star/twin-single":           "5e51123b8e50fac3e06107bca1909287fde5750d34794d253b847236d375d983",
	"ba-2k/flood/run-hybrid":              "4c7abb0d05d97ff63eaa848b73e2eceff0373e54086a65bb41ef05ca5e0ea8e5",
	"ba-2k/flood/run-single":              "f239a67fad7a7e3af46155a6d3ed1266d04f09d07cd8a5cd19435205d8417f54",
	"ba-2k/flood/twin-hybrid":             "4c7abb0d05d97ff63eaa848b73e2eceff0373e54086a65bb41ef05ca5e0ea8e5",
	"ba-2k/flood/twin-multi":              "4c7abb0d05d97ff63eaa848b73e2eceff0373e54086a65bb41ef05ca5e0ea8e5",
	"ba-2k/flood/twin-single":             "f239a67fad7a7e3af46155a6d3ed1266d04f09d07cd8a5cd19435205d8417f54",
	"ba96/random/run-hybrid":              "24ba876177af406a3104fc71e78f8642371cd0a7ea95d1ba36135a31d75b2456",
	"ba96/random/run-single":              "78573343b9625d8449c5783b1a89e5446849a25c95622728edb334bd26c7fc23",
	"ba96/random/twin-hybrid":             "24ba876177af406a3104fc71e78f8642371cd0a7ea95d1ba36135a31d75b2456",
	"ba96/random/twin-multi":              "03fbefd77fcf3c7f1144b56a14f045ac6c861983152cd88f47346d1d8682fbc7",
	"ba96/random/twin-single":             "78573343b9625d8449c5783b1a89e5446849a25c95622728edb334bd26c7fc23",
	"ba96/star/run-hybrid":                "b1e78df05e3a271be64226bd802d23d047f867e4a69db8a5ad5d67dc5d7b9dc9",
	"ba96/star/run-single":                "a6795313246878c63714f78b6f323c05da21831bb3948a1aaecaeb64a1c22ac8",
	"ba96/star/twin-hybrid":               "b1e78df05e3a271be64226bd802d23d047f867e4a69db8a5ad5d67dc5d7b9dc9",
	"ba96/star/twin-multi":                "b1e78df05e3a271be64226bd802d23d047f867e4a69db8a5ad5d67dc5d7b9dc9",
	"ba96/star/twin-single":               "a6795313246878c63714f78b6f323c05da21831bb3948a1aaecaeb64a1c22ac8",
	"bipart/s0/random/run-hybrid":         "3ff8612dacce5070f4a47c1f71a69cdf543b047d5a2f13acd465b40fd682b837",
	"bipart/s0/random/run-single":         "3ff8612dacce5070f4a47c1f71a69cdf543b047d5a2f13acd465b40fd682b837",
	"bipart/s0/random/twin-hybrid":        "3ff8612dacce5070f4a47c1f71a69cdf543b047d5a2f13acd465b40fd682b837",
	"bipart/s0/random/twin-multi":         "3ff8612dacce5070f4a47c1f71a69cdf543b047d5a2f13acd465b40fd682b837",
	"bipart/s0/random/twin-single":        "3ff8612dacce5070f4a47c1f71a69cdf543b047d5a2f13acd465b40fd682b837",
	"bipart/s0/star/run-hybrid":           "9fd932a1e4e051c7dec764d5c90fa77087f7754c4af86f8421858713d469b7bf",
	"bipart/s0/star/run-single":           "9fd932a1e4e051c7dec764d5c90fa77087f7754c4af86f8421858713d469b7bf",
	"bipart/s0/star/twin-hybrid":          "9fd932a1e4e051c7dec764d5c90fa77087f7754c4af86f8421858713d469b7bf",
	"bipart/s0/star/twin-multi":           "9fd932a1e4e051c7dec764d5c90fa77087f7754c4af86f8421858713d469b7bf",
	"bipart/s0/star/twin-single":          "9fd932a1e4e051c7dec764d5c90fa77087f7754c4af86f8421858713d469b7bf",
	"bipart/s1/random/run-hybrid":         "3ff8612dacce5070f4a47c1f71a69cdf543b047d5a2f13acd465b40fd682b837",
	"bipart/s1/random/run-single":         "3ff8612dacce5070f4a47c1f71a69cdf543b047d5a2f13acd465b40fd682b837",
	"bipart/s1/random/twin-hybrid":        "3ff8612dacce5070f4a47c1f71a69cdf543b047d5a2f13acd465b40fd682b837",
	"bipart/s1/random/twin-multi":         "3ff8612dacce5070f4a47c1f71a69cdf543b047d5a2f13acd465b40fd682b837",
	"bipart/s1/random/twin-single":        "3ff8612dacce5070f4a47c1f71a69cdf543b047d5a2f13acd465b40fd682b837",
	"bipart/s1/star/run-hybrid":           "9fd932a1e4e051c7dec764d5c90fa77087f7754c4af86f8421858713d469b7bf",
	"bipart/s1/star/run-single":           "9fd932a1e4e051c7dec764d5c90fa77087f7754c4af86f8421858713d469b7bf",
	"bipart/s1/star/twin-hybrid":          "9fd932a1e4e051c7dec764d5c90fa77087f7754c4af86f8421858713d469b7bf",
	"bipart/s1/star/twin-multi":           "9fd932a1e4e051c7dec764d5c90fa77087f7754c4af86f8421858713d469b7bf",
	"bipart/s1/star/twin-single":          "9fd932a1e4e051c7dec764d5c90fa77087f7754c4af86f8421858713d469b7bf",
	"bipart/s2/random/run-hybrid":         "3ff8612dacce5070f4a47c1f71a69cdf543b047d5a2f13acd465b40fd682b837",
	"bipart/s2/random/run-single":         "3ff8612dacce5070f4a47c1f71a69cdf543b047d5a2f13acd465b40fd682b837",
	"bipart/s2/random/twin-hybrid":        "3ff8612dacce5070f4a47c1f71a69cdf543b047d5a2f13acd465b40fd682b837",
	"bipart/s2/random/twin-multi":         "3ff8612dacce5070f4a47c1f71a69cdf543b047d5a2f13acd465b40fd682b837",
	"bipart/s2/random/twin-single":        "3ff8612dacce5070f4a47c1f71a69cdf543b047d5a2f13acd465b40fd682b837",
	"bipart/s2/star/run-hybrid":           "9fd932a1e4e051c7dec764d5c90fa77087f7754c4af86f8421858713d469b7bf",
	"bipart/s2/star/run-single":           "9fd932a1e4e051c7dec764d5c90fa77087f7754c4af86f8421858713d469b7bf",
	"bipart/s2/star/twin-hybrid":          "9fd932a1e4e051c7dec764d5c90fa77087f7754c4af86f8421858713d469b7bf",
	"bipart/s2/star/twin-multi":           "9fd932a1e4e051c7dec764d5c90fa77087f7754c4af86f8421858713d469b7bf",
	"bipart/s2/star/twin-single":          "9fd932a1e4e051c7dec764d5c90fa77087f7754c4af86f8421858713d469b7bf",
	"gnm-10/s0/random/run-hybrid":         "2dca92ac0a5116e36ceec227599573df7fe101c1d1c7c60a9b98b97390fde93c",
	"gnm-10/s0/random/run-single":         "2dca92ac0a5116e36ceec227599573df7fe101c1d1c7c60a9b98b97390fde93c",
	"gnm-10/s0/random/twin-hybrid":        "2dca92ac0a5116e36ceec227599573df7fe101c1d1c7c60a9b98b97390fde93c",
	"gnm-10/s0/random/twin-multi":         "2dca92ac0a5116e36ceec227599573df7fe101c1d1c7c60a9b98b97390fde93c",
	"gnm-10/s0/random/twin-single":        "2dca92ac0a5116e36ceec227599573df7fe101c1d1c7c60a9b98b97390fde93c",
	"gnm-10/s0/star/run-hybrid":           "d7c8d40a443671f8f413cfa1516eaa766662afeda2a55970fdf10413374d0c95",
	"gnm-10/s0/star/run-single":           "d7c8d40a443671f8f413cfa1516eaa766662afeda2a55970fdf10413374d0c95",
	"gnm-10/s0/star/twin-hybrid":          "d7c8d40a443671f8f413cfa1516eaa766662afeda2a55970fdf10413374d0c95",
	"gnm-10/s0/star/twin-multi":           "d7c8d40a443671f8f413cfa1516eaa766662afeda2a55970fdf10413374d0c95",
	"gnm-10/s0/star/twin-single":          "d7c8d40a443671f8f413cfa1516eaa766662afeda2a55970fdf10413374d0c95",
	"gnm-10/s1/random/run-hybrid":         "2477c5b3c04e601665d46d71d4f75b467a6888abeace6ef95c4cec81e0c993c0",
	"gnm-10/s1/random/run-single":         "2477c5b3c04e601665d46d71d4f75b467a6888abeace6ef95c4cec81e0c993c0",
	"gnm-10/s1/random/twin-hybrid":        "2477c5b3c04e601665d46d71d4f75b467a6888abeace6ef95c4cec81e0c993c0",
	"gnm-10/s1/random/twin-multi":         "8178992c09a43c0fff8cb17e562afb9297c0b8c499da19a8288ed38c19775d86",
	"gnm-10/s1/random/twin-single":        "2477c5b3c04e601665d46d71d4f75b467a6888abeace6ef95c4cec81e0c993c0",
	"gnm-10/s1/star/run-hybrid":           "ec209f1cbffe935c4d84f42a043f0eba2e8128d8889b5a7cc2bf57eb2e1cd4f0",
	"gnm-10/s1/star/run-single":           "ec209f1cbffe935c4d84f42a043f0eba2e8128d8889b5a7cc2bf57eb2e1cd4f0",
	"gnm-10/s1/star/twin-hybrid":          "ec209f1cbffe935c4d84f42a043f0eba2e8128d8889b5a7cc2bf57eb2e1cd4f0",
	"gnm-10/s1/star/twin-multi":           "ec209f1cbffe935c4d84f42a043f0eba2e8128d8889b5a7cc2bf57eb2e1cd4f0",
	"gnm-10/s1/star/twin-single":          "ec209f1cbffe935c4d84f42a043f0eba2e8128d8889b5a7cc2bf57eb2e1cd4f0",
	"gnm-10/s2/random/run-hybrid":         "3f643ad4871bb43e8579a9d3446609d6b82dd1abc6b24e39c65b5106cab2f8d0",
	"gnm-10/s2/random/run-single":         "3f643ad4871bb43e8579a9d3446609d6b82dd1abc6b24e39c65b5106cab2f8d0",
	"gnm-10/s2/random/twin-hybrid":        "3f643ad4871bb43e8579a9d3446609d6b82dd1abc6b24e39c65b5106cab2f8d0",
	"gnm-10/s2/random/twin-multi":         "3f643ad4871bb43e8579a9d3446609d6b82dd1abc6b24e39c65b5106cab2f8d0",
	"gnm-10/s2/random/twin-single":        "3f643ad4871bb43e8579a9d3446609d6b82dd1abc6b24e39c65b5106cab2f8d0",
	"gnm-10/s2/star/run-hybrid":           "d9217e7df9d691ba5758751ed404a4028a783f7282fb763f65fe20ac314a8d94",
	"gnm-10/s2/star/run-single":           "d9217e7df9d691ba5758751ed404a4028a783f7282fb763f65fe20ac314a8d94",
	"gnm-10/s2/star/twin-hybrid":          "d9217e7df9d691ba5758751ed404a4028a783f7282fb763f65fe20ac314a8d94",
	"gnm-10/s2/star/twin-multi":           "d9217e7df9d691ba5758751ed404a4028a783f7282fb763f65fe20ac314a8d94",
	"gnm-10/s2/star/twin-single":          "d9217e7df9d691ba5758751ed404a4028a783f7282fb763f65fe20ac314a8d94",
	"gnm-12/s0/random/run-hybrid":         "7ec70e7f0270cebfe89513bce79401247ed730037ca506e7bc95e852adf28778",
	"gnm-12/s0/random/run-single":         "7ec70e7f0270cebfe89513bce79401247ed730037ca506e7bc95e852adf28778",
	"gnm-12/s0/random/twin-hybrid":        "7ec70e7f0270cebfe89513bce79401247ed730037ca506e7bc95e852adf28778",
	"gnm-12/s0/random/twin-multi":         "7ec70e7f0270cebfe89513bce79401247ed730037ca506e7bc95e852adf28778",
	"gnm-12/s0/random/twin-single":        "7ec70e7f0270cebfe89513bce79401247ed730037ca506e7bc95e852adf28778",
	"gnm-12/s0/star/run-hybrid":           "6aa398fe49ec8d65e7f97745bbd9a274cb397b43be29bb936f527370bb8710b2",
	"gnm-12/s0/star/run-single":           "6aa398fe49ec8d65e7f97745bbd9a274cb397b43be29bb936f527370bb8710b2",
	"gnm-12/s0/star/twin-hybrid":          "6aa398fe49ec8d65e7f97745bbd9a274cb397b43be29bb936f527370bb8710b2",
	"gnm-12/s0/star/twin-multi":           "6aa398fe49ec8d65e7f97745bbd9a274cb397b43be29bb936f527370bb8710b2",
	"gnm-12/s0/star/twin-single":          "6aa398fe49ec8d65e7f97745bbd9a274cb397b43be29bb936f527370bb8710b2",
	"gnm-12/s1/random/run-hybrid":         "70eb81e8553c6c3eb9d38b676f0332ae6be06d46446e98f583dd3a0ceafb21ef",
	"gnm-12/s1/random/run-single":         "70eb81e8553c6c3eb9d38b676f0332ae6be06d46446e98f583dd3a0ceafb21ef",
	"gnm-12/s1/random/twin-hybrid":        "70eb81e8553c6c3eb9d38b676f0332ae6be06d46446e98f583dd3a0ceafb21ef",
	"gnm-12/s1/random/twin-multi":         "cdcbb03c948d1d24c2665e489899d7ef39c30a0c26e783bf6c4fb2ab74178311",
	"gnm-12/s1/random/twin-single":        "70eb81e8553c6c3eb9d38b676f0332ae6be06d46446e98f583dd3a0ceafb21ef",
	"gnm-12/s1/star/run-hybrid":           "bffc675ba2fa656b2d3d709903639916474d4677079943ad8ff076c7796d5d12",
	"gnm-12/s1/star/run-single":           "bffc675ba2fa656b2d3d709903639916474d4677079943ad8ff076c7796d5d12",
	"gnm-12/s1/star/twin-hybrid":          "bffc675ba2fa656b2d3d709903639916474d4677079943ad8ff076c7796d5d12",
	"gnm-12/s1/star/twin-multi":           "dfd4fd63a9c586f0187651b72c21ee9b83c619d6e96f750ab1aa31b7a2605816",
	"gnm-12/s1/star/twin-single":          "bffc675ba2fa656b2d3d709903639916474d4677079943ad8ff076c7796d5d12",
	"gnm-12/s2/random/run-hybrid":         "789add207c86bf1cd76d7e080613f5465a3bc58986093b47469aafd08282b968",
	"gnm-12/s2/random/run-single":         "789add207c86bf1cd76d7e080613f5465a3bc58986093b47469aafd08282b968",
	"gnm-12/s2/random/twin-hybrid":        "789add207c86bf1cd76d7e080613f5465a3bc58986093b47469aafd08282b968",
	"gnm-12/s2/random/twin-multi":         "f5d1f7ed33469735504516048f6ee512bd7a17efce0651c9a26541111f906fa1",
	"gnm-12/s2/random/twin-single":        "789add207c86bf1cd76d7e080613f5465a3bc58986093b47469aafd08282b968",
	"gnm-12/s2/star/run-hybrid":           "3a619883036fe343d431e7f6b7390fb8e47757d650e38c1efe4d185575c4803a",
	"gnm-12/s2/star/run-single":           "3a619883036fe343d431e7f6b7390fb8e47757d650e38c1efe4d185575c4803a",
	"gnm-12/s2/star/twin-hybrid":          "3a619883036fe343d431e7f6b7390fb8e47757d650e38c1efe4d185575c4803a",
	"gnm-12/s2/star/twin-multi":           "3a619883036fe343d431e7f6b7390fb8e47757d650e38c1efe4d185575c4803a",
	"gnm-12/s2/star/twin-single":          "3a619883036fe343d431e7f6b7390fb8e47757d650e38c1efe4d185575c4803a",
	"gnm-1k/flood/run-hybrid":             "bb669e08b5942f0c7309218ed370fb4ec86a39ecc7a8b0fab5ee9085903f0d4e",
	"gnm-1k/flood/run-single":             "38c0f1c5aaeb7142bafaa43decc7066ad08e821ca8c4af7591a6113e1ea0eacf",
	"gnm-1k/flood/twin-hybrid":            "bb669e08b5942f0c7309218ed370fb4ec86a39ecc7a8b0fab5ee9085903f0d4e",
	"gnm-1k/flood/twin-multi":             "10501bd7cc093530cc98164f9564e0ac70cde6b282825ec8f43bf14dcc270ef4",
	"gnm-1k/flood/twin-single":            "38c0f1c5aaeb7142bafaa43decc7066ad08e821ca8c4af7591a6113e1ea0eacf",
	"gnp-11/s0/random/run-hybrid":         "77e966e6cad13be49bd5640d9152fddb25ae69f20a202139066533ff9973f1e7",
	"gnp-11/s0/random/run-single":         "77e966e6cad13be49bd5640d9152fddb25ae69f20a202139066533ff9973f1e7",
	"gnp-11/s0/random/twin-hybrid":        "77e966e6cad13be49bd5640d9152fddb25ae69f20a202139066533ff9973f1e7",
	"gnp-11/s0/random/twin-multi":         "48d3a889dbbd3dc8d29106151bb0975dfb3e93e0e8426c9d5098d03702ecdf46",
	"gnp-11/s0/random/twin-single":        "77e966e6cad13be49bd5640d9152fddb25ae69f20a202139066533ff9973f1e7",
	"gnp-11/s0/star/run-hybrid":           "550a2007353b9c920cb4e40fe6265c586cfc8295555006e546011190386ca08f",
	"gnp-11/s0/star/run-single":           "550a2007353b9c920cb4e40fe6265c586cfc8295555006e546011190386ca08f",
	"gnp-11/s0/star/twin-hybrid":          "550a2007353b9c920cb4e40fe6265c586cfc8295555006e546011190386ca08f",
	"gnp-11/s0/star/twin-multi":           "053fd4455e2db70e099dcc54a65977cbb026c0a7841057ab3e5c770e8438e084",
	"gnp-11/s0/star/twin-single":          "550a2007353b9c920cb4e40fe6265c586cfc8295555006e546011190386ca08f",
	"gnp-11/s1/random/run-hybrid":         "cf97b8c5ce457ff971e007353fa5c5bc9a64e09effeeab6658326283015691de",
	"gnp-11/s1/random/run-single":         "cf97b8c5ce457ff971e007353fa5c5bc9a64e09effeeab6658326283015691de",
	"gnp-11/s1/random/twin-hybrid":        "cf97b8c5ce457ff971e007353fa5c5bc9a64e09effeeab6658326283015691de",
	"gnp-11/s1/random/twin-multi":         "9916346e6db193c255d6fd3f24b73620fdb2a50c144c5a2894a12c1bf5b015c3",
	"gnp-11/s1/random/twin-single":        "cf97b8c5ce457ff971e007353fa5c5bc9a64e09effeeab6658326283015691de",
	"gnp-11/s1/star/run-hybrid":           "54c0dc9ed793a31fae63c68f147e1c20aaf33f8fe1e8763213a1b7fbf154714c",
	"gnp-11/s1/star/run-single":           "54c0dc9ed793a31fae63c68f147e1c20aaf33f8fe1e8763213a1b7fbf154714c",
	"gnp-11/s1/star/twin-hybrid":          "54c0dc9ed793a31fae63c68f147e1c20aaf33f8fe1e8763213a1b7fbf154714c",
	"gnp-11/s1/star/twin-multi":           "54c0dc9ed793a31fae63c68f147e1c20aaf33f8fe1e8763213a1b7fbf154714c",
	"gnp-11/s1/star/twin-single":          "54c0dc9ed793a31fae63c68f147e1c20aaf33f8fe1e8763213a1b7fbf154714c",
	"gnp-11/s2/random/run-hybrid":         "2179dfa8077c5ab4bec7a419dc9bb74171556d56099bd995ac54d54451bca6ce",
	"gnp-11/s2/random/run-single":         "2179dfa8077c5ab4bec7a419dc9bb74171556d56099bd995ac54d54451bca6ce",
	"gnp-11/s2/random/twin-hybrid":        "2179dfa8077c5ab4bec7a419dc9bb74171556d56099bd995ac54d54451bca6ce",
	"gnp-11/s2/random/twin-multi":         "2179dfa8077c5ab4bec7a419dc9bb74171556d56099bd995ac54d54451bca6ce",
	"gnp-11/s2/random/twin-single":        "2179dfa8077c5ab4bec7a419dc9bb74171556d56099bd995ac54d54451bca6ce",
	"gnp-11/s2/star/run-hybrid":           "ca972cf66296185f710acefe272745c5938e994a896d18c2515793dedbeda860",
	"gnp-11/s2/star/run-single":           "ca972cf66296185f710acefe272745c5938e994a896d18c2515793dedbeda860",
	"gnp-11/s2/star/twin-hybrid":          "ca972cf66296185f710acefe272745c5938e994a896d18c2515793dedbeda860",
	"gnp-11/s2/star/twin-multi":           "ca972cf66296185f710acefe272745c5938e994a896d18c2515793dedbeda860",
	"gnp-11/s2/star/twin-single":          "ca972cf66296185f710acefe272745c5938e994a896d18c2515793dedbeda860",
	"gnp64/random/run-hybrid":             "6437102dd0a39b9f2ca01969ac018910435b89992dbcd07998d4fa5e548380db",
	"gnp64/random/run-single":             "6f63cefa63db1683ed2aecadd67d2ec44860484ca9329962febed76ed9140202",
	"gnp64/random/twin-hybrid":            "6437102dd0a39b9f2ca01969ac018910435b89992dbcd07998d4fa5e548380db",
	"gnp64/random/twin-multi":             "82574d2491d460b1736c3a91c9e90000560d9d47a21d5f50bc397401d76f53f1",
	"gnp64/random/twin-single":            "6f63cefa63db1683ed2aecadd67d2ec44860484ca9329962febed76ed9140202",
	"gnp64/star/run-hybrid":               "4e120e79d2ba4b5714f29fef78faa1447b897ae1b8da59691c8d6b63d535f58a",
	"gnp64/star/run-single":               "7201ba6c036f9dfc5ae72396d5d9dce2ac91f6fd4f941c1431ac917356ffe37f",
	"gnp64/star/twin-hybrid":              "4e120e79d2ba4b5714f29fef78faa1447b897ae1b8da59691c8d6b63d535f58a",
	"gnp64/star/twin-multi":               "80162f11da61fca92bdb49b2c0132eee9c83ae5a91f18b9c51d19fe358631005",
	"gnp64/star/twin-single":              "7201ba6c036f9dfc5ae72396d5d9dce2ac91f6fd4f941c1431ac917356ffe37f",
	"gnp96-relabelled/random/run-hybrid":  "1d2ff5923433224876efdfdef6435a9517de1eab22c2a580edfb6fda8dc59c1b",
	"gnp96-relabelled/random/run-single":  "3346728dd7de818da7501e4bafbbde8090b3a1dba94fbfe71365d7dd647f0bec",
	"gnp96-relabelled/random/twin-hybrid": "1d2ff5923433224876efdfdef6435a9517de1eab22c2a580edfb6fda8dc59c1b",
	"gnp96-relabelled/random/twin-multi":  "4254de919cfff8178969f26d0539a62344d1f171c9860e6654fbe78350139386",
	"gnp96-relabelled/random/twin-single": "3346728dd7de818da7501e4bafbbde8090b3a1dba94fbfe71365d7dd647f0bec",
	"gnp96-relabelled/star/run-hybrid":    "77c7a9377f1676dc646be8c12a4f21c1a505dad34eb668c1aa04c644f183848c",
	"gnp96-relabelled/star/run-single":    "9ab68dc047ff352d29dfe7d5db76f4487ff27213646f4ce4fe89339d3816265e",
	"gnp96-relabelled/star/twin-hybrid":   "77c7a9377f1676dc646be8c12a4f21c1a505dad34eb668c1aa04c644f183848c",
	"gnp96-relabelled/star/twin-multi":    "c1573ca0a040b75ec8390b4597d88f70248945dcc0233c03e9dd27ab1deb9eb9",
	"gnp96-relabelled/star/twin-single":   "9ab68dc047ff352d29dfe7d5db76f4487ff27213646f4ce4fe89339d3816265e",
	"grid-4k/flood/run-hybrid":            "5f3fc3bed8faae406a6ba8cea656caeef632c9bcaa44fc17a6e80b437d220cdb",
	"grid-4k/flood/run-single":            "5f3fc3bed8faae406a6ba8cea656caeef632c9bcaa44fc17a6e80b437d220cdb",
	"grid-4k/flood/twin-hybrid":           "5f3fc3bed8faae406a6ba8cea656caeef632c9bcaa44fc17a6e80b437d220cdb",
	"grid-4k/flood/twin-multi":            "b02437c1270e103026a99db16c308fa2ab739de17b7bdf221943d7f827250fc5",
	"grid-4k/flood/twin-single":           "5f3fc3bed8faae406a6ba8cea656caeef632c9bcaa44fc17a6e80b437d220cdb",
	"grid8x12/random/run-hybrid":          "a430be4da9631fb3cf7dda84ab06e58ffeefcb61696a5a7cc2170e38493ecce4",
	"grid8x12/random/run-single":          "ea372606152918068e6d2c292ea023a18e6dc444569446781c15ccb77d6abef8",
	"grid8x12/random/twin-hybrid":         "a430be4da9631fb3cf7dda84ab06e58ffeefcb61696a5a7cc2170e38493ecce4",
	"grid8x12/random/twin-multi":          "3515e26761cc0e3e0731588bfaa3613a4b5253a2ffbe3b660e20f974c8420835",
	"grid8x12/random/twin-single":         "ea372606152918068e6d2c292ea023a18e6dc444569446781c15ccb77d6abef8",
	"grid8x12/star/run-hybrid":            "acd24aa14d049e7c2fd1bb58490707547a4a7d27fbdf08542e21e9984bb9cd18",
	"grid8x12/star/run-single":            "94f73edf77a6bfcbd85d8440eb25a11a96327c5a1c7d726c00fcba788042d1cd",
	"grid8x12/star/twin-hybrid":           "acd24aa14d049e7c2fd1bb58490707547a4a7d27fbdf08542e21e9984bb9cd18",
	"grid8x12/star/twin-multi":            "2eea8529e08fb2ba9e99f3e4242e3cd7161eb08a78de69d53825b62530ef5e15",
	"grid8x12/star/twin-single":           "94f73edf77a6bfcbd85d8440eb25a11a96327c5a1c7d726c00fcba788042d1cd",
	"hamchords64/random/run-hybrid":       "381ef83b7ff3424e6d9f5af298443a4aee1cc179eaa7c79435654bad8b531bbb",
	"hamchords64/random/run-single":       "94131b7efbc481c47cd132c780d913b8c2c62b235539820789ea9ce6282cff5a",
	"hamchords64/random/twin-hybrid":      "381ef83b7ff3424e6d9f5af298443a4aee1cc179eaa7c79435654bad8b531bbb",
	"hamchords64/random/twin-multi":       "5c284bb6a63046fee01123d934982c339ca45e04ea626fb5259b26c22bb445f2",
	"hamchords64/random/twin-single":      "94131b7efbc481c47cd132c780d913b8c2c62b235539820789ea9ce6282cff5a",
	"hamchords64/star/run-hybrid":         "82d82273cbb378875f41322949a1160487db729b52f9764f708a4879aeab5e95",
	"hamchords64/star/run-single":         "01b2da4b38589e231b33465092b0e9504ba2f64e0c81140909719683fce7c2dc",
	"hamchords64/star/twin-hybrid":        "82d82273cbb378875f41322949a1160487db729b52f9764f708a4879aeab5e95",
	"hamchords64/star/twin-multi":         "04c47d3ff6fabca1b2659c623a6e81915b6bc934743368919053fa6e8daf46e1",
	"hamchords64/star/twin-single":        "01b2da4b38589e231b33465092b0e9504ba2f64e0c81140909719683fce7c2dc",
	"hypercube6/random/run-hybrid":        "1ecd9d7d7c7390a5be04584d30de8e470a4393ca7f72863b05695835a8f8323a",
	"hypercube6/random/run-single":        "ab4f058e3e2116e5cd8991c2dc0c0c0fd6a753df084b2845cded2a3148811c44",
	"hypercube6/random/twin-hybrid":       "1ecd9d7d7c7390a5be04584d30de8e470a4393ca7f72863b05695835a8f8323a",
	"hypercube6/random/twin-multi":        "8e835db2ddd189961788c1f028c50c94eb9fc7cb089a999b5a362bc036ff542a",
	"hypercube6/random/twin-single":       "ab4f058e3e2116e5cd8991c2dc0c0c0fd6a753df084b2845cded2a3148811c44",
	"hypercube6/star/run-hybrid":          "8c42114a3027ece17f9dc271bd859eb20c9eaf1b7f4b2009cc669b6e5d108a07",
	"hypercube6/star/run-single":          "68588f50b6b149220a955b50e381eee779511184801eceda71036b622f2a3ffc",
	"hypercube6/star/twin-hybrid":         "8c42114a3027ece17f9dc271bd859eb20c9eaf1b7f4b2009cc669b6e5d108a07",
	"hypercube6/star/twin-multi":          "b7b797aa9d08b329b75f93ad08246d9d8aad324cb372c373bd51cba8108118e7",
	"hypercube6/star/twin-single":         "68588f50b6b149220a955b50e381eee779511184801eceda71036b622f2a3ffc",
	"wheel48/random/run-hybrid":           "0f593485510dffccc595451a798c14523152947eedfafc01b7d4729bb3da73a7",
	"wheel48/random/run-single":           "0f593485510dffccc595451a798c14523152947eedfafc01b7d4729bb3da73a7",
	"wheel48/random/twin-hybrid":          "0f593485510dffccc595451a798c14523152947eedfafc01b7d4729bb3da73a7",
	"wheel48/random/twin-multi":           "0f593485510dffccc595451a798c14523152947eedfafc01b7d4729bb3da73a7",
	"wheel48/random/twin-single":          "0f593485510dffccc595451a798c14523152947eedfafc01b7d4729bb3da73a7",
	"wheel48/star/run-hybrid":             "6921a75e8bec692afab6d6d41cdff0f0b30f093329f8dfee3ed547f7818fe3c8",
	"wheel48/star/run-single":             "6921a75e8bec692afab6d6d41cdff0f0b30f093329f8dfee3ed547f7818fe3c8",
	"wheel48/star/twin-hybrid":            "6921a75e8bec692afab6d6d41cdff0f0b30f093329f8dfee3ed547f7818fe3c8",
	"wheel48/star/twin-multi":             "6921a75e8bec692afab6d6d41cdff0f0b30f093329f8dfee3ed547f7818fe3c8",
	"wheel48/star/twin-single":            "6921a75e8bec692afab6d6d41cdff0f0b30f093329f8dfee3ed547f7818fe3c8",
}

// outcomeDigest hashes the undirected edge set of d (as identity pairs,
// smaller first, sorted), the swap count and the final degree.
func outcomeDigest(d *tree.Dense, swaps, final int) string {
	idx := d.Index()
	edges := make([][2]sim.NodeID, 0, d.N())
	for v := int32(0); int(v) < d.N(); v++ {
		if p := d.Parent(v); p != tree.NoParent {
			a, b := idx.ID(v), idx.ID(p)
			edges = append(edges, [2]sim.NodeID{min(a, b), max(a, b)})
		}
	}
	slices.SortFunc(edges, func(x, y [2]sim.NodeID) int {
		if x[0] != y[0] {
			return int(x[0] - y[0])
		}
		return int(x[1] - y[1])
	})
	h := sha256.New()
	for _, e := range edges {
		fmt.Fprintf(h, "%d-%d\n", e[0], e[1])
	}
	fmt.Fprintf(h, "swaps=%d k*=%d\n", swaps, final)
	return fmt.Sprintf("%x", h.Sum(nil))
}

// outcomeCorpus is TestSequentialLayerPinned's seeded corpus (internal/fr)
// from its star and seeded random starts, plus the benchmark's canonical
// gnm-1k, ba-2k and grid-4k instances from the flood start the pipeline
// builds.
func outcomeCorpus(t *testing.T) []struct {
	name string
	c    *graph.CSR
	t0   *tree.Dense
} {
	t.Helper()
	var out []struct {
		name string
		c    *graph.CSR
		t0   *tree.Dense
	}
	add := func(name string, c *graph.CSR, t0 *tree.Dense, err error) {
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out = append(out, struct {
			name string
			c    *graph.CSR
			t0   *tree.Dense
		}{name, c, t0})
	}
	seeded := func(name string, g *graph.Graph) {
		c := g.Compile()
		star, err := spanning.StarTree(c)
		add(name+"/star", c, star, err)
		random, err := spanning.RandomST(c, 11)
		add(name+"/random", c, random, err)
	}
	relabel := func(g *graph.Graph) *graph.Graph {
		out := graph.New()
		for _, v := range g.Nodes() {
			out.AddNode(7*v + 3)
		}
		for _, e := range g.Edges() {
			out.MustAddEdge(7*e.U+3, 7*e.V+3)
		}
		return out
	}
	seeded("gnp64", graph.Gnp(64, 0.08, 1))
	seeded("gnp96-relabelled", relabel(graph.Gnp(96, 0.06, 2)))
	seeded("ba96", graph.BarabasiAlbert(96, 2, 3))
	seeded("grid8x12", graph.Grid(8, 12))
	seeded("wheel48", graph.Wheel(48))
	seeded("hamchords64", graph.HamiltonianPlusChords(64, 64, 4))
	seeded("hypercube6", graph.Hypercube(6))
	for s := int64(0); s < 3; s++ {
		seeded(fmt.Sprintf("gnm-10/s%d", s), graph.Gnm(10, 16, s))
		seeded(fmt.Sprintf("gnm-12/s%d", s), graph.Gnm(12, 20, s))
		seeded(fmt.Sprintf("gnp-11/s%d", s), graph.Gnp(11, 0.35, s))
		seeded(fmt.Sprintf("ba-12/s%d", s), graph.BarabasiAlbert(12, 2, s))
		seeded(fmt.Sprintf("bipart/s%d", s), graph.CompleteBipartite(3, 8))
	}
	for _, w := range []struct {
		name string
		g    *graph.Graph
	}{
		{"gnm-1k", graph.Gnm(1024, 3072, 1)},
		{"ba-2k", graph.BarabasiAlbert(2048, 2, 1)},
		{"grid-4k", graph.Grid(64, 64)},
	} {
		c := w.g.Compile()
		eng := &sim.EventEngine{Delay: sim.UnitDelay, FIFO: true}
		t0, _, err := spanning.Build(eng, c, spanning.NewFloodFactory(c, c.Index().ID(0)))
		add(w.name+"/flood", c, t0, err)
	}
	return out
}

// TestImprovementOutcomePinned compares the outcome digest of mdst.Run in
// Single and Hybrid mode and of fr.Twin in all three modes, over the
// corpus, against the pinned table.
func TestImprovementOutcomePinned(t *testing.T) {
	for _, tc := range outcomeCorpus(t) {
		for _, mode := range []mdst.Mode{mdst.Single, mdst.Hybrid} {
			t.Run(tc.name+"/run-"+mode.String(), func(t *testing.T) {
				eng := &sim.EventEngine{Delay: sim.UnitDelay, FIFO: true}
				res, err := mdst.Run(eng, tc.c, tc.t0, mode, 0)
				if err != nil {
					t.Fatal(err)
				}
				checkOutcome(t, tc.name+"/run-"+mode.String(), outcomeDigest(res.Tree, res.Swaps, res.FinalDegree))
			})
		}
		for _, mode := range []mdst.Mode{mdst.Single, mdst.Multi, mdst.Hybrid} {
			t.Run(tc.name+"/twin-"+mode.String(), func(t *testing.T) {
				d, st, err := fr.Twin(tc.c, tc.t0, mode, 0)
				if err != nil {
					t.Fatal(err)
				}
				checkOutcome(t, tc.name+"/twin-"+mode.String(), outcomeDigest(d, st.Swaps, st.FinalDegree))
			})
		}
	}
}

func checkOutcome(t *testing.T, key, got string) {
	t.Helper()
	if want := outcomeDigests[key]; got != want {
		t.Errorf("outcome digest %s, pinned %q", got, want)
	}
}
