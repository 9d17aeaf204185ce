package fr

import (
	"crypto/sha256"
	"fmt"
	"hash"
	"io"
	"maps"
	"slices"
	"testing"

	"mdegst/internal/exact"
	"mdegst/internal/graph"
	"mdegst/internal/mdst"
	"mdegst/internal/spanning"
	"mdegst/internal/tree"
)

// sequentialDigests pins every output of the sequential layer — the four
// spanning-tree builders, the Fürer–Raghavachari searches, the twin in all
// three modes and the exact solver — over a seeded corpus. Each entry
// digests Tree.String() of the result plus its statistics line, so a port
// of these algorithms to another tree or graph representation must
// reproduce them node for node, root and orientation included.
var sequentialDigests = map[string]string{
	"ba-12/s0/bfs":                        "3d9e18ed015f43c11223f8214acc333ebf76ac9396a0a250408834d7dc3c7d70",
	"ba-12/s0/dfs":                        "2be522b929761f9ce2da0a7b33e29154d2d52677054e509a6e97307e17665b8a",
	"ba-12/s0/exact":                      "409745c7cc7be9cbcef8c64f5c9fb164df56c84339f3809b4482c21eb6d8d738",
	"ba-12/s0/random":                     "a6ed2a50024947a72f8f033989d5660cc13d4d3d2e21abb9b36e80c1a67f1f6e",
	"ba-12/s0/random/fr":                  "1663fe2522d87ef9cb698b7347d3a2ad6b15fb0882fd7aae01c37a6876bf6916",
	"ba-12/s0/random/strict":              "1663fe2522d87ef9cb698b7347d3a2ad6b15fb0882fd7aae01c37a6876bf6916",
	"ba-12/s0/random/twin-hybrid":         "dc01f5f6892556e7337f9012549f57ea95d3a3e2dcd0e342e44db0660a887b80",
	"ba-12/s0/random/twin-multi":          "2bf0b6cb1efd028625c9f74b81a59b40b977b441c555eb8d286acd79d977f01c",
	"ba-12/s0/random/twin-single":         "0198f4887ef7ea097a66987016cd6c59e649024b5cea41e5ae008a138e2111f3",
	"ba-12/s0/star":                       "cc61b31c27a7bcafc49d87b0d39fc0eb29c002f11a30dac994e53bdaea9483d7",
	"ba-12/s0/star/fr":                    "df3fa6c77b6901a94389af53e8aa01cf6b77c0f08b412ad5e14f8f4f4c0be6de",
	"ba-12/s0/star/strict":                "df3fa6c77b6901a94389af53e8aa01cf6b77c0f08b412ad5e14f8f4f4c0be6de",
	"ba-12/s0/star/twin-hybrid":           "edc542254d59ae293eeba05771ff355a5784c3d81c1bd384166c483f2cee2332",
	"ba-12/s0/star/twin-multi":            "7dc77ada17bf5949e182e5ad3c780452725cad8bf0cd9b07c9a31b68030406ca",
	"ba-12/s0/star/twin-single":           "0587b0064b2ba040498372b002d7890e85ab407d99b871928d73444c11c8e348",
	"ba-12/s1/bfs":                        "7dafea0cd9cbda823b4d5522e1f671d52e52ba667cb93e17a4c6c5e0aeef8f3c",
	"ba-12/s1/dfs":                        "0e35f630854d502f48f68461094eeff99e45c1fc9bce7fca18ec90d04b3ba1b9",
	"ba-12/s1/exact":                      "1d58d3bfce382fe725d8268ec8b7a9c2fd342381ecf0811f40b7b24d18de7a5f",
	"ba-12/s1/random":                     "c359e47a3b012344a47d1fe4fde0bd6269c66cccee7d69e6909e4c3e85c96c7a",
	"ba-12/s1/random/fr":                  "2a203c3f3e9ad6dc00003043622e3294a5cdeca3f7344afc9778511f87c3ce35",
	"ba-12/s1/random/strict":              "2a203c3f3e9ad6dc00003043622e3294a5cdeca3f7344afc9778511f87c3ce35",
	"ba-12/s1/random/twin-hybrid":         "0e37803f75a9f3efe33b4e1e3c31d945a56ba994b2a8a01a80807e241bd8f4f7",
	"ba-12/s1/random/twin-multi":          "e4767961af38c71ac5948579a56602464a399770692be978680792b0214ed383",
	"ba-12/s1/random/twin-single":         "a81761c11ed2519e3c76f1fb2a212cfc44a59995d9e30b282f79a64496f9914d",
	"ba-12/s1/star":                       "80d3c7ed77478101076d6b4f6e5d0fdaf77016dbeb7713a08d325b9248559dc2",
	"ba-12/s1/star/fr":                    "66f10838e5863cae7fc4cac0c17e3d1f66f2e74d249d2d6db2312fdab3abb6af",
	"ba-12/s1/star/strict":                "66f10838e5863cae7fc4cac0c17e3d1f66f2e74d249d2d6db2312fdab3abb6af",
	"ba-12/s1/star/twin-hybrid":           "00fbae71a0430ae95e60d1be8e3ce12043f2f7365ee0d8cb44203ac12b4a3fe2",
	"ba-12/s1/star/twin-multi":            "cced5cc807a7d5f28a20c4c29b6ca0bbd2908614df053fd47f628e39086fe07b",
	"ba-12/s1/star/twin-single":           "7ae79c228a128898cf07909e59f71acc23c478ccd38551c50c3bba0179178717",
	"ba-12/s2/bfs":                        "8bbf16df468f0c3acbea8c09d3aad4675cb5dd1d3ceceec903130178bb731331",
	"ba-12/s2/dfs":                        "9b15f0966dc22c4bf62379da3d233a18282a199352170885ec1054fcec5be24e",
	"ba-12/s2/exact":                      "8f72ce331b9eeed9411d9508d37b1cca045de94e2ad6743bf4dd00c6a8a82a24",
	"ba-12/s2/random":                     "3724dc01aaf6d13e7834681ed9ad8b628c4182af5048af395cb7a7cdbee45a06",
	"ba-12/s2/random/fr":                  "b79353fb1a31a1b7296ab0113e80e014d02ab23845f2bef5f57751b3272f3afc",
	"ba-12/s2/random/strict":              "b79353fb1a31a1b7296ab0113e80e014d02ab23845f2bef5f57751b3272f3afc",
	"ba-12/s2/random/twin-hybrid":         "d588f4f13eba8749e88843588d7591d9d23ee0bbb65d9ae4ec3881918222a57c",
	"ba-12/s2/random/twin-multi":          "1d5ab4d647183e0709d4514d207846cb9cba188103c92828dbf9db3bbf946519",
	"ba-12/s2/random/twin-single":         "dc0ea60798e8f24141111b19b8cdec05f06da865d9d06cab57f00878f740ea7e",
	"ba-12/s2/star":                       "9b7ae94faca66039da84626087b2bc4a3e3a1a3bc934d56ef200cd5ad18d0ad0",
	"ba-12/s2/star/fr":                    "d56d972c85583ef08701853ad7333d07bceba5572dc37699a8cc7398c6c3163a",
	"ba-12/s2/star/strict":                "d56d972c85583ef08701853ad7333d07bceba5572dc37699a8cc7398c6c3163a",
	"ba-12/s2/star/twin-hybrid":           "2166016e9d52c35451ee6d03460a659329e2cac830ce1c6c851ae9adefaf8e57",
	"ba-12/s2/star/twin-multi":            "fc39b6f5c0a9a7dcd9178980e61e8e4e525d45be7bddc360352723d1ab9b54f4",
	"ba-12/s2/star/twin-single":           "5107e11009e7f67a9205a00163ae8d3afe67d1114d1e97bc35109d92a12d0226",
	"ba96/bfs":                            "4629284fab5b5126c7ffebd1eaf1d9fd93a205c27d46fa87f768bfcf7d099bfc",
	"ba96/dfs":                            "9a06254f78c468d9e9ea3ba36d8a909110e00276d1b03e9f490001f501ad5b3c",
	"ba96/random":                         "7b67b45635bc4874b8c9474afb665d31343f6443998584b2c20c6fb8a997c58c",
	"ba96/random/fr":                      "14dfa0138bb95417236b0e9cdc3e069fcaea942bd7f8bfe4d7580da78b0469a6",
	"ba96/random/strict":                  "4fb022587a87e4ff6bceac43d34688ddbca352d9bb9008c971d2db2f74dbfecb",
	"ba96/random/twin-hybrid":             "16d9fc7fae63c2e562273ae1267b4d766352facad7b4ee1c47376a40770b0551",
	"ba96/random/twin-multi":              "c8cb9195e87b32418627a7ea3a673cb1b6e3acda5c1c617311aea9cb87ca0454",
	"ba96/random/twin-single":             "fc88c7b73647751a2a2e5413629eeb8496ff67e8165de5e3034825c6ec3b4839",
	"ba96/star":                           "af0b06970476112dd751b382f9368c9fdf5efa0a563ff1ba869b81db52d9464d",
	"ba96/star/fr":                        "ca42a123d4d978e059eb379fedf5cafd6b3c260eee091e8f9c4b520fe203760c",
	"ba96/star/strict":                    "7c992d65cdca7be350c6322dbf5c1d07634e2fa009d1040932feb28825d4410e",
	"ba96/star/twin-hybrid":               "6e1290001ee02af7b9f8abf39fb872e16de1a428d1106f6f5bfcc73f97439b6d",
	"ba96/star/twin-multi":                "d7da98d48b76bd3f5afae20156a6b4fc89ec5d3da536a02950c3f846a0e85986",
	"ba96/star/twin-single":               "18ceb44c30a27cbe4f6092929b583e6b7392322aaab6d29ba8c6b9faaf0e5b3c",
	"bipart/s0/bfs":                       "02f8f882ef2926a50fd99572dc2b76101aaab116216c8cd9061cab8cd604599b",
	"bipart/s0/dfs":                       "98f341df0fb12f2e6194f60dfd2fb7ef3e5c6720261099b2231bbef46c0b4ad0",
	"bipart/s0/exact":                     "a2ee01fa16671b147c1723f15d11d2768ee2933b48808f1eefa69aacdbb41cc5",
	"bipart/s0/random":                    "90520e6569663b2d4022605715afa77ff0dad9075faa5b455b9a57fe5afc3059",
	"bipart/s0/random/fr":                 "61d30c744b98ed211f703d48346d3b0b6c91f8aa81df59f4947c3fa5b0d39309",
	"bipart/s0/random/strict":             "61d30c744b98ed211f703d48346d3b0b6c91f8aa81df59f4947c3fa5b0d39309",
	"bipart/s0/random/twin-hybrid":        "7111a00e0907b23092351a973b2823a269b759504f633afc971805772e4a2952",
	"bipart/s0/random/twin-multi":         "ab0e8cd1a6ac1b676e4784ea90a9760d5a86679730e7b0fcff9a6c323f501a46",
	"bipart/s0/random/twin-single":        "710cce59314fd8fddc8c3c85d5eb2f2257fa29cba85174ac905ed5cb05a423ff",
	"bipart/s0/star":                      "02f8f882ef2926a50fd99572dc2b76101aaab116216c8cd9061cab8cd604599b",
	"bipart/s0/star/fr":                   "d9118e8dc81e1cc71aa6d1eae6b0455e27bec516b858861b455af88ce43bcf0b",
	"bipart/s0/star/strict":               "d9118e8dc81e1cc71aa6d1eae6b0455e27bec516b858861b455af88ce43bcf0b",
	"bipart/s0/star/twin-hybrid":          "8336e9f8d47ef523d91bdf3708f7948d76b2241750cd27e4448dd6a7aa111c4d",
	"bipart/s0/star/twin-multi":           "ea54a6964777bd978bc617bedde9168732080faa06a1e100e4589b52132c5f7d",
	"bipart/s0/star/twin-single":          "223c30dd41f6f4e71c629c2d0b04b95f352099d3019c20fb9e75c21d752935fd",
	"bipart/s1/bfs":                       "02f8f882ef2926a50fd99572dc2b76101aaab116216c8cd9061cab8cd604599b",
	"bipart/s1/dfs":                       "98f341df0fb12f2e6194f60dfd2fb7ef3e5c6720261099b2231bbef46c0b4ad0",
	"bipart/s1/exact":                     "a2ee01fa16671b147c1723f15d11d2768ee2933b48808f1eefa69aacdbb41cc5",
	"bipart/s1/random":                    "90520e6569663b2d4022605715afa77ff0dad9075faa5b455b9a57fe5afc3059",
	"bipart/s1/random/fr":                 "61d30c744b98ed211f703d48346d3b0b6c91f8aa81df59f4947c3fa5b0d39309",
	"bipart/s1/random/strict":             "61d30c744b98ed211f703d48346d3b0b6c91f8aa81df59f4947c3fa5b0d39309",
	"bipart/s1/random/twin-hybrid":        "7111a00e0907b23092351a973b2823a269b759504f633afc971805772e4a2952",
	"bipart/s1/random/twin-multi":         "ab0e8cd1a6ac1b676e4784ea90a9760d5a86679730e7b0fcff9a6c323f501a46",
	"bipart/s1/random/twin-single":        "710cce59314fd8fddc8c3c85d5eb2f2257fa29cba85174ac905ed5cb05a423ff",
	"bipart/s1/star":                      "02f8f882ef2926a50fd99572dc2b76101aaab116216c8cd9061cab8cd604599b",
	"bipart/s1/star/fr":                   "d9118e8dc81e1cc71aa6d1eae6b0455e27bec516b858861b455af88ce43bcf0b",
	"bipart/s1/star/strict":               "d9118e8dc81e1cc71aa6d1eae6b0455e27bec516b858861b455af88ce43bcf0b",
	"bipart/s1/star/twin-hybrid":          "8336e9f8d47ef523d91bdf3708f7948d76b2241750cd27e4448dd6a7aa111c4d",
	"bipart/s1/star/twin-multi":           "ea54a6964777bd978bc617bedde9168732080faa06a1e100e4589b52132c5f7d",
	"bipart/s1/star/twin-single":          "223c30dd41f6f4e71c629c2d0b04b95f352099d3019c20fb9e75c21d752935fd",
	"bipart/s2/bfs":                       "02f8f882ef2926a50fd99572dc2b76101aaab116216c8cd9061cab8cd604599b",
	"bipart/s2/dfs":                       "98f341df0fb12f2e6194f60dfd2fb7ef3e5c6720261099b2231bbef46c0b4ad0",
	"bipart/s2/exact":                     "a2ee01fa16671b147c1723f15d11d2768ee2933b48808f1eefa69aacdbb41cc5",
	"bipart/s2/random":                    "90520e6569663b2d4022605715afa77ff0dad9075faa5b455b9a57fe5afc3059",
	"bipart/s2/random/fr":                 "61d30c744b98ed211f703d48346d3b0b6c91f8aa81df59f4947c3fa5b0d39309",
	"bipart/s2/random/strict":             "61d30c744b98ed211f703d48346d3b0b6c91f8aa81df59f4947c3fa5b0d39309",
	"bipart/s2/random/twin-hybrid":        "7111a00e0907b23092351a973b2823a269b759504f633afc971805772e4a2952",
	"bipart/s2/random/twin-multi":         "ab0e8cd1a6ac1b676e4784ea90a9760d5a86679730e7b0fcff9a6c323f501a46",
	"bipart/s2/random/twin-single":        "710cce59314fd8fddc8c3c85d5eb2f2257fa29cba85174ac905ed5cb05a423ff",
	"bipart/s2/star":                      "02f8f882ef2926a50fd99572dc2b76101aaab116216c8cd9061cab8cd604599b",
	"bipart/s2/star/fr":                   "d9118e8dc81e1cc71aa6d1eae6b0455e27bec516b858861b455af88ce43bcf0b",
	"bipart/s2/star/strict":               "d9118e8dc81e1cc71aa6d1eae6b0455e27bec516b858861b455af88ce43bcf0b",
	"bipart/s2/star/twin-hybrid":          "8336e9f8d47ef523d91bdf3708f7948d76b2241750cd27e4448dd6a7aa111c4d",
	"bipart/s2/star/twin-multi":           "ea54a6964777bd978bc617bedde9168732080faa06a1e100e4589b52132c5f7d",
	"bipart/s2/star/twin-single":          "223c30dd41f6f4e71c629c2d0b04b95f352099d3019c20fb9e75c21d752935fd",
	"gnm-10/s0/bfs":                       "355525486cfafdcd593a47e999320520e30604f66c77bf01b3ad4b777a85cbaa",
	"gnm-10/s0/dfs":                       "74935f868d7d3d1589201957fb0b5f67877cee985495bb85af95d42c534c01d2",
	"gnm-10/s0/exact":                     "f545c100da26f73c0013cc6cc528a51ddd89374c31a270139d1daff186d961a6",
	"gnm-10/s0/random":                    "21f756a075c55b5d684aca760c46cfbf784986527063da593057329ec1d4ffa6",
	"gnm-10/s0/random/fr":                 "2358266cf582607805a9b8b976ff30410a742a33a37b0927f917fb6ed33e9bbd",
	"gnm-10/s0/random/strict":             "2358266cf582607805a9b8b976ff30410a742a33a37b0927f917fb6ed33e9bbd",
	"gnm-10/s0/random/twin-hybrid":        "6269b8b9afc18e80187e8a92c6ba478f51591fb55c123a091c5db87d1e1fa884",
	"gnm-10/s0/random/twin-multi":         "6269b8b9afc18e80187e8a92c6ba478f51591fb55c123a091c5db87d1e1fa884",
	"gnm-10/s0/random/twin-single":        "6269b8b9afc18e80187e8a92c6ba478f51591fb55c123a091c5db87d1e1fa884",
	"gnm-10/s0/star":                      "a9ab846e5b65d7078b88a4da3e2aeb561be4b38004e12703b49bfff23d3e33d5",
	"gnm-10/s0/star/fr":                   "4429436922059de168e41c7da93b9837e6e2dc8c3f8da4489b89813a41f49eed",
	"gnm-10/s0/star/strict":               "4429436922059de168e41c7da93b9837e6e2dc8c3f8da4489b89813a41f49eed",
	"gnm-10/s0/star/twin-hybrid":          "22afda69becfc5a184325bf99642619247d349a32bdffe5a3806e03827764b11",
	"gnm-10/s0/star/twin-multi":           "2207428fe170cc22bcf48423f181119c9a6dbcf5756899ffeee713f06a202a5c",
	"gnm-10/s0/star/twin-single":          "354e1c3f5c30785d5d501982b019f907e321fd8bae32311d73b528096debb931",
	"gnm-10/s1/bfs":                       "dbd6d8a3db152991f624b76bdc13fe6a3a8c3ca7d81b1c86da5a2a20a697eb2b",
	"gnm-10/s1/dfs":                       "0c10f88f22f54dddd09930d5236cc977ce8fe9f851a4fb97d8aa2639ef8f2eae",
	"gnm-10/s1/exact":                     "90a8869ed4b8fb7e63cf9eb3e375769d5553f642493412b1f0f3108777960f69",
	"gnm-10/s1/random":                    "c9b7dbfbb606e7357624844fd671961c06cad5c18ad633a918bbb2c33f140d4f",
	"gnm-10/s1/random/fr":                 "2f38e06b26586d3dfe392779173c71180d2217643a3c7d84b875c0d91d976243",
	"gnm-10/s1/random/strict":             "2f38e06b26586d3dfe392779173c71180d2217643a3c7d84b875c0d91d976243",
	"gnm-10/s1/random/twin-hybrid":        "811e25a77b32e5b6b99d813120a2b0f8b8c6ba41cf4cec855438bc3e154f0bc1",
	"gnm-10/s1/random/twin-multi":         "c253d651954c7c33ff30f9e2c35d1af3dad457a3470c5b6bbcc5fc3690f12ceb",
	"gnm-10/s1/random/twin-single":        "4a713f0d38643f162bccf5a705823b3ddbf3a1c7b777b6d732007100ad4818dd",
	"gnm-10/s1/star":                      "04587ab9264cf8a23c74c1a13c26bc8c009d18c04708d37442f468f98a77defa",
	"gnm-10/s1/star/fr":                   "c4c0dcd74ff0b3b884059bbc121aca2ba5f86747e4e5ea9b3c025ddd338c7f46",
	"gnm-10/s1/star/strict":               "c4c0dcd74ff0b3b884059bbc121aca2ba5f86747e4e5ea9b3c025ddd338c7f46",
	"gnm-10/s1/star/twin-hybrid":          "7a90adde6e59771345e9cbd20a5adfd27235552f181474d46b00b5c2b012042a",
	"gnm-10/s1/star/twin-multi":           "23ae99900f0a91400bf4611223b3e7db71b12cfc81f035c0339f3075e0d8f211",
	"gnm-10/s1/star/twin-single":          "ef15ec048bb6da8baced161e135ffd304f0f79a5d821523951b0c40d6ec4bdd0",
	"gnm-10/s2/bfs":                       "cf4458c8a29e438dccd6e8e56277e85f2e99b0af465970b96c8f76f0106249a5",
	"gnm-10/s2/dfs":                       "0a7976a9af2eb28a97107c8686e01cdbea402a16305ed2d445f4dc820ea79d8e",
	"gnm-10/s2/exact":                     "1566ad63a58bd1ae536e8373d4bdf2c8954db53c840a9eecf0e4c2ae46036cc6",
	"gnm-10/s2/random":                    "21bd8a8f5a66879dc920f4b6b962db829222ab881d4c12dbe48e90d46df72699",
	"gnm-10/s2/random/fr":                 "ec81da8679134bbfca1f00d5dce0137f54ac3edcae568b7872090a48326e3c78",
	"gnm-10/s2/random/strict":             "ec81da8679134bbfca1f00d5dce0137f54ac3edcae568b7872090a48326e3c78",
	"gnm-10/s2/random/twin-hybrid":        "1e7c1b6d6229a1cb3bc8da5484e49cba3b33370acf218f8b97b848c012d10524",
	"gnm-10/s2/random/twin-multi":         "d338e39f8fb7940da0cd4acf7a0a49227a4a0184439e2e8070ed1c850ae6967b",
	"gnm-10/s2/random/twin-single":        "46f62b3743dbf17043380711e139ff962457fef70f31725e8b8368bc6e2a731d",
	"gnm-10/s2/star":                      "40d8ac819abc7b3d1c32b0b031767c3a2cbebc0fb3fbc2e6e865c8376784564b",
	"gnm-10/s2/star/fr":                   "6841a69368ddeef76b066573161bc724dccb8e6cc7d3d1ddd0b6e1dbd5f52d22",
	"gnm-10/s2/star/strict":               "6841a69368ddeef76b066573161bc724dccb8e6cc7d3d1ddd0b6e1dbd5f52d22",
	"gnm-10/s2/star/twin-hybrid":          "ace0a08e55b157c4e16ce93a427fe08362e4fe7bf922ed605065e92c239fdd09",
	"gnm-10/s2/star/twin-multi":           "72330471de434bf5e25f435261c351c4dc58170a52e2452f3dcb6407498c237b",
	"gnm-10/s2/star/twin-single":          "4b7c7d341f590c047a136df6595cd596e5c85c4579307eeba6902f6959d702ae",
	"gnm-12/s0/bfs":                       "f549d6c6ff07bee55b68cb101906e9b3dd0a24c7956fc6311de095014ed2dad5",
	"gnm-12/s0/dfs":                       "e87ab9214f1fa2c6c60d7b6f62659c49f6a12d6d3956f6c347966b69db6a9e07",
	"gnm-12/s0/exact":                     "47417e063d0f0170d5f1d1f324c155c36d91e3d910cf619a826c23f6baa004e2",
	"gnm-12/s0/random":                    "04a5e8ef1f73bee7c18b72a7eae418c963bd6845911beba5d77433c8a72f92c7",
	"gnm-12/s0/random/fr":                 "f27dd0c648160dc7492f8cae875a7f0f8e7da108f6ce441733bd7c431114a29e",
	"gnm-12/s0/random/strict":             "f27dd0c648160dc7492f8cae875a7f0f8e7da108f6ce441733bd7c431114a29e",
	"gnm-12/s0/random/twin-hybrid":        "beecdc934bdfceb0ed67ec08849d6f7cc7e42c54b683afd63915c93e56cc05e7",
	"gnm-12/s0/random/twin-multi":         "7dbb986ba5f353230b0f5058355878326a4f9de31d9fdafc90132a82476f0457",
	"gnm-12/s0/random/twin-single":        "395f5d0c5b69c9efce1869fced6a3f740e925e60f2297eb23998e39a9cc465d2",
	"gnm-12/s0/star":                      "377e3356046dce1a08e90b71134e920c81039149cda62b70b6094bc420b59a3a",
	"gnm-12/s0/star/fr":                   "9604cc13a44eedd3100fcc2ee3d277d289413ab436a3ad4f296f7e9b4e172df1",
	"gnm-12/s0/star/strict":               "9604cc13a44eedd3100fcc2ee3d277d289413ab436a3ad4f296f7e9b4e172df1",
	"gnm-12/s0/star/twin-hybrid":          "5a686f26cec8a89f677bce2b1ef1cdc11d0f23655679e572347ba494782ffcda",
	"gnm-12/s0/star/twin-multi":           "38231e7a3533faa299278c4f93263f6a0bb26014776cdf1a769a229fee460297",
	"gnm-12/s0/star/twin-single":          "4dc8879f24e975846614987273e66151ea2e09d74edf1dfdcf5dcee796b6cb22",
	"gnm-12/s1/bfs":                       "c31944750d1f8b950854a008f6b13745f31cb8d573dd0a510d87f0842c6c84f2",
	"gnm-12/s1/dfs":                       "89169156ceb06dfe8a6ef0d7e36a9262200e20b629076edcfbb9a34b8d8dddce",
	"gnm-12/s1/exact":                     "544f5f6b7fd8ee291a011cef3ea94440b44a5cd3e396592726900271944a188a",
	"gnm-12/s1/random":                    "160194704325c2c5a10d9bc887d807145e438e8c1066b20ae68522f739e8bb4c",
	"gnm-12/s1/random/fr":                 "2a7356bef2ab664d0d59107b4259e210fe1d9249bf6694ddfcd537b4abfa6990",
	"gnm-12/s1/random/strict":             "2a7356bef2ab664d0d59107b4259e210fe1d9249bf6694ddfcd537b4abfa6990",
	"gnm-12/s1/random/twin-hybrid":        "bdd202c534b859460f4d5263bbb28536846a0028734f44164632e04bc773c22b",
	"gnm-12/s1/random/twin-multi":         "abcdbf0e970f3193d0dda093dc35607f8955ed81b8fd1846be2ed99482a9efe6",
	"gnm-12/s1/random/twin-single":        "017916ff99dfa0b89fde4a5b3990a010fe3e320fa465c7b8675d3eab18311948",
	"gnm-12/s1/star":                      "31eb5a65d18ba27e22c6df739df79e4bc6cee6ed6e9ccd0b98c62084a61b6721",
	"gnm-12/s1/star/fr":                   "9910a4b4e7fb9f13be8ff47aecc8df8c60985a04d3847458ca6c65a32b89dd04",
	"gnm-12/s1/star/strict":               "9910a4b4e7fb9f13be8ff47aecc8df8c60985a04d3847458ca6c65a32b89dd04",
	"gnm-12/s1/star/twin-hybrid":          "0ed9cf84befc1b83a1d4e455c1073c46264e85dad24a3a2397a89209baa99015",
	"gnm-12/s1/star/twin-multi":           "b7d2d5bbcc7f015219164d1efc527b86b6a53314e196b0ff688b1518b672edbd",
	"gnm-12/s1/star/twin-single":          "f91748eba4d5e5816f4add363e652073961d40ae1e67ff9f17b2875227e18022",
	"gnm-12/s2/bfs":                       "88de93d63f4426672fb929d2ed7a1105684352f4e6a3d0410b91eeb6ca77186d",
	"gnm-12/s2/dfs":                       "d464e76058e251c99662d3ec5157b198c6c95ca937cf9c5aa683303a4e5942ca",
	"gnm-12/s2/exact":                     "3b0d572dcb5538f7eb605d203938c33202dd3b1f733bc06db1066f3a5476bbcb",
	"gnm-12/s2/random":                    "668f0486b214f1289b641886dbef8f5fb9a96c8a72eba0527542fbad7fdac866",
	"gnm-12/s2/random/fr":                 "698793b798b759444936de0a2ec3242618b116e89da308d0a594880f4c651ecc",
	"gnm-12/s2/random/strict":             "698793b798b759444936de0a2ec3242618b116e89da308d0a594880f4c651ecc",
	"gnm-12/s2/random/twin-hybrid":        "44828c8e04dde4b06a71c954da77189b2769a24e417c1173f6e4a24b6d451446",
	"gnm-12/s2/random/twin-multi":         "a60674857d64f20105332c83079ac5d4014c6a80d0f7911cf85150fee5e4ab03",
	"gnm-12/s2/random/twin-single":        "87f51a15e18982e4a1bea12292bdae813eccacdff836a39614211b22c625c3a5",
	"gnm-12/s2/star":                      "e177889c8178db9123f280c26f2928ceba29944eafce0990891db4cc542ea72b",
	"gnm-12/s2/star/fr":                   "2f69b62f9dced3a0e0c55fe6e2225e4eb8ad08551fd01cc354ef22b1a435b690",
	"gnm-12/s2/star/strict":               "2f69b62f9dced3a0e0c55fe6e2225e4eb8ad08551fd01cc354ef22b1a435b690",
	"gnm-12/s2/star/twin-hybrid":          "78233fe8445aff6d4df44ed326c1ed491505994d8822f2fe9f9dbb57109a76ec",
	"gnm-12/s2/star/twin-multi":           "b7b57d3e2f0885f91f4529d54a40bd4a4f5ab2bcc21a9c933ed7902745a9b821",
	"gnm-12/s2/star/twin-single":          "3dec44dada4bbf1fd560166cb7519cdf44abd46eb0cba9d9f43fcbfa6cfa3677",
	"gnp-11/s0/bfs":                       "008bc5ecf9be30ae7c85c1b0c4e63a14757d721185e86e56f645fc368bd75b61",
	"gnp-11/s0/dfs":                       "63bd803b5eeb305abdc7892c5bf23f87f2e2124298c1a098ba55566961ba0da7",
	"gnp-11/s0/exact":                     "923e3bac5623f68a27b6a3e5ffc8999372138727f3430b8733933e2d3db8f855",
	"gnp-11/s0/random":                    "9cd640d7b3f04d83a0b660b760fab5b980c57fc5e02bdef8fbd39679f11d4f55",
	"gnp-11/s0/random/fr":                 "322d4097de228b59aa3a6160237dd4d44c1d9125e5cdf996b389bfa1a9b13954",
	"gnp-11/s0/random/strict":             "322d4097de228b59aa3a6160237dd4d44c1d9125e5cdf996b389bfa1a9b13954",
	"gnp-11/s0/random/twin-hybrid":        "c20c81158f72845b690ef1231e9e0700e37b2dbd9a4f00686a015fdad0e7397f",
	"gnp-11/s0/random/twin-multi":         "010f2b8573054a1f726b1d89e9ff01caee546e256a7bbf6c410e1ca9b6957973",
	"gnp-11/s0/random/twin-single":        "d538a7b3b5750c7ca47966fa72953bde8b3f8947d60423adb5a7fdfa3343e0d7",
	"gnp-11/s0/star":                      "fbde50d635e71b980f48c02d92f2c8e99ebe8de3f5b11cfe2b8cf927573cd975",
	"gnp-11/s0/star/fr":                   "c29b602fcd812624480980933ac11bf0fefcf2ca691be58b4e09d3afd39151f3",
	"gnp-11/s0/star/strict":               "c29b602fcd812624480980933ac11bf0fefcf2ca691be58b4e09d3afd39151f3",
	"gnp-11/s0/star/twin-hybrid":          "8ab78c6a6f30ca4a62bfb39b9d24f3210a8826b21d7368cd86bbe09504a00336",
	"gnp-11/s0/star/twin-multi":           "98a1d574141d7f95310eabc79b30fb38ce80b99f6c66ca58fef25544a9d4832c",
	"gnp-11/s0/star/twin-single":          "10ef610615cbd9e59363f2779a37acb10d4e5ca779ca4b7aef2f23115cb588a9",
	"gnp-11/s1/bfs":                       "b5bbfcd2d0b171567625aad4da8ded0d0a1da3b0574de130c50e5b0e4f8edb26",
	"gnp-11/s1/dfs":                       "dc3bb06169cd271ac62efe19365eb43a4d4a9af4f8450465821c7744b168742d",
	"gnp-11/s1/exact":                     "4f89f56e2ecf858bfdb243441459744afc67a8a2c525be593fc6441fc706e058",
	"gnp-11/s1/random":                    "915ac7f6a1f727db956b309056120143b892f82f17dc87d7894e4eaa6a5c0629",
	"gnp-11/s1/random/fr":                 "d86d736b158296e8c2b32a81b161569f98372ae56367549a6520e384fb5be14f",
	"gnp-11/s1/random/strict":             "d86d736b158296e8c2b32a81b161569f98372ae56367549a6520e384fb5be14f",
	"gnp-11/s1/random/twin-hybrid":        "faca33b600e3d6a071dce58078352fa1681d6b7ef3f67e9a04cb9fab8eff5437",
	"gnp-11/s1/random/twin-multi":         "2d4688cc10abe8068624d624462f963e2ca5ca8244a402c22a28a0124e9e7c59",
	"gnp-11/s1/random/twin-single":        "e0b164087057d506d520e95aa6467146762e0e69f13c2b4f6920ab80ad993128",
	"gnp-11/s1/star":                      "f8079907c03f9e4df83e5c77230828ab7a4468bcf7ed7d438fba120f39678816",
	"gnp-11/s1/star/fr":                   "740dd305695181c106f3ba456248608b278f32d967dde6a2886918b7686695dc",
	"gnp-11/s1/star/strict":               "740dd305695181c106f3ba456248608b278f32d967dde6a2886918b7686695dc",
	"gnp-11/s1/star/twin-hybrid":          "8800ee058fe2bb542b8a0de8d4849b359a0a067c89885f2c400e878e05d53212",
	"gnp-11/s1/star/twin-multi":           "952c2378f6f89981b4e160dbc1212daae478c90e61eea84ec9dd30fd434c0348",
	"gnp-11/s1/star/twin-single":          "cbbc9149e66333b5f3cfddcb7604bafc1f1dab45a40c29de13e8302042add7dc",
	"gnp-11/s2/bfs":                       "9d495cb1e92583d41cf4ef20c534a2486e6153e749d8190add1c6377b7ee5f4d",
	"gnp-11/s2/dfs":                       "f986fa0511a6fb8aee796a871e137ed1c554dc89cb7228f34648bf421611313a",
	"gnp-11/s2/exact":                     "fee713511db797d1ee68e6ffd836084f19e8d1de7fa19db863c7a41ba28d7893",
	"gnp-11/s2/random":                    "fa2d837808d5cdbd808d31a13aef3594a42fa5460f5855af33ff8e8fc0c4a54c",
	"gnp-11/s2/random/fr":                 "7701523521d72943e5e7580e69b816edaad44f75408e188b5422033f1109cc5d",
	"gnp-11/s2/random/strict":             "7701523521d72943e5e7580e69b816edaad44f75408e188b5422033f1109cc5d",
	"gnp-11/s2/random/twin-hybrid":        "99f020ad034c7259c957bba587fdcf2ab74e56b1dbe03ae8c0bcdb78a6f50049",
	"gnp-11/s2/random/twin-multi":         "363368d829c522b97c99290b9627c1593cf7a6f6ce3860045b22f32b70f9afd2",
	"gnp-11/s2/random/twin-single":        "a5d87620fa292e5a54261308f3024b77277943ca9e6d1e76825e6693a46932e6",
	"gnp-11/s2/star":                      "1702ddd24a8974c5dfc894ff30a00badda0b616e4af8647574d89cbb64515b4e",
	"gnp-11/s2/star/fr":                   "ae88412c9862c121114cd219209b7075a134c2c9853d7eebeedcc1d7b5a158f4",
	"gnp-11/s2/star/strict":               "ae88412c9862c121114cd219209b7075a134c2c9853d7eebeedcc1d7b5a158f4",
	"gnp-11/s2/star/twin-hybrid":          "620ef924c076306bd7e8c27a1a7e84313db43f2eb79d59d55ae7fe7247a8032f",
	"gnp-11/s2/star/twin-multi":           "54edfa9832e29a7aa038f37ddd4cff9d01045e07434ea333e9bd1502763b79ce",
	"gnp-11/s2/star/twin-single":          "373288455179b301b0a9b3027f0206a61c37c882d150ead0d1baf45c66461c20",
	"gnp64/bfs":                           "cda05d5700a05cd6c8444b83888359679d6549c4ec3e589290ba52ece764e1f3",
	"gnp64/dfs":                           "de51aba82926536ac7ce86e198ac1fc81c315956b170826527da3bb255837e77",
	"gnp64/random":                        "45bac4e4e4d9d9f10763058195d567e3e648df02015e464b1a928ce259833dad",
	"gnp64/random/fr":                     "c94df4ab61867d6afbd3184cb09109f056e10767060017e146007775295c7912",
	"gnp64/random/strict":                 "c94df4ab61867d6afbd3184cb09109f056e10767060017e146007775295c7912",
	"gnp64/random/twin-hybrid":            "f938ef285b7b26b5b9dc08efb82dbb83d7f4a0cde3546d4244b6569c9256dca5",
	"gnp64/random/twin-multi":             "a04949e46bf54eea3853b2d61134f022ffe6b7e49cf3ebf60d07aed5ceedf2dd",
	"gnp64/random/twin-single":            "5e3855acc63938014244397b30695fcae52ca6ec272e55d315d5eb9b682b5a2f",
	"gnp64/star":                          "2e5030c42b8ee2d600b8f0d41bd2a0dcc97eac722498750002baf59e8c9afa37",
	"gnp64/star/fr":                       "9378f51cbdf237204c4e4d4aa13ac806beb4c171ebc3ec074f43ff612658a2e4",
	"gnp64/star/strict":                   "9378f51cbdf237204c4e4d4aa13ac806beb4c171ebc3ec074f43ff612658a2e4",
	"gnp64/star/twin-hybrid":              "4f5d6136c61bf6a1224d5ed5b093ea5a8bcbd51a46cd22f7ebab454b20554606",
	"gnp64/star/twin-multi":               "fb8ec81146558de9a28e3531774ce25a4d17649001cf40f37dc246a2d5a938bb",
	"gnp64/star/twin-single":              "019f7784eae2131c6746bcf01ff529df0b99bb7c598db22d41299ebd67675ca3",
	"gnp96-relabelled/bfs":                "1b337c8298ca77646bfd133b35b1810af0bee4215a129551d9fdef5d5c0909c7",
	"gnp96-relabelled/dfs":                "948f16e9197851f529ac5ad76b4488111f5917f03832037cbbb0d5dd7589c5b9",
	"gnp96-relabelled/random":             "37f41b9beb3e2c1a2b8ee0866b1cc25c3248bbf9f7b772e5052a909d8712ed55",
	"gnp96-relabelled/random/fr":          "0eac16f66a32977960c08d81321de35e307de96d66675ec9591b871f5724e006",
	"gnp96-relabelled/random/strict":      "0eac16f66a32977960c08d81321de35e307de96d66675ec9591b871f5724e006",
	"gnp96-relabelled/random/twin-hybrid": "063ff7910dc992f39e906ec5b85593c09a8f7172e1d70b44acf0dff7d6c8df34",
	"gnp96-relabelled/random/twin-multi":  "68899c07901105e1ae9d6340b63c84ab9462e492852c4a7fbb0ffac78602c629",
	"gnp96-relabelled/random/twin-single": "0aa4addaadc646b83fed3733adc908ba548e096170cf792077ffcd7c996c6bdf",
	"gnp96-relabelled/star":               "11585e2dac0d2a3ffc7eee88f595d16b8d1364f71a216a22db4b8d4c41dafd21",
	"gnp96-relabelled/star/fr":            "f5a2bfbe8310bb50ad9dfb50544380aa2261ab4974788095f2635dc591293269",
	"gnp96-relabelled/star/strict":        "f5a2bfbe8310bb50ad9dfb50544380aa2261ab4974788095f2635dc591293269",
	"gnp96-relabelled/star/twin-hybrid":   "a0b2dc4167890259d11b77a333addd54f1035903d63ee7f9061c0abbbac1cd6e",
	"gnp96-relabelled/star/twin-multi":    "02c10145fde49e42f723bf63d2fc3650a9a5d0378c584cd5672a4586f7228ef9",
	"gnp96-relabelled/star/twin-single":   "01feb2a0a782f6fe09fc12cbf2b42752473f63629768a03c887df27c59d8ad40",
	"grid8x12/bfs":                        "482affa1ae9cf2c068cdf9b033f34bec217477a6b0aa07e695e0fe5fee5d8fba",
	"grid8x12/dfs":                        "71abfd614e39c646260882aa9a427967685ec0c58cf6c4b6ee3074934212d10c",
	"grid8x12/random":                     "2f2e6d7617f5ebfee7f0a19c30ee6f24488114becd1a76999e2d1f66c9799ef3",
	"grid8x12/random/fr":                  "daed53ffc596337edb2bb1eb1cf87785939e88eb51322c3a990ff4deb4de108f",
	"grid8x12/random/strict":              "daed53ffc596337edb2bb1eb1cf87785939e88eb51322c3a990ff4deb4de108f",
	"grid8x12/random/twin-hybrid":         "a6fc8de7df3fab43842891a3c7e605905e841299a0c32dfa2bca216b0e261684",
	"grid8x12/random/twin-multi":          "00d85cf2bf3bb60e08d8a53033fbeb4282fe879ea4d8718b93197ec14ba120cf",
	"grid8x12/random/twin-single":         "928292f5812b9dab66411025c7ff96b0035f109b0345663e16b7095f019c0ea2",
	"grid8x12/star":                       "209cf97ca4660f8b8590f6eb87512749e37937c0c1d626bb771e4caa45a8a27d",
	"grid8x12/star/fr":                    "dc7076d6b57ca0060ccfd723a1e9f0b6d9e83301b9841bb084a61701beef78d3",
	"grid8x12/star/strict":                "dc7076d6b57ca0060ccfd723a1e9f0b6d9e83301b9841bb084a61701beef78d3",
	"grid8x12/star/twin-hybrid":           "748bbeef4b06a25df30fd0a34249ce06da562d554e03472abe089b8cbb8b2d42",
	"grid8x12/star/twin-multi":            "3dab9a3aa23de2fd2c0c0fb5a51c4e0216f73c98ae31b62366ff09d34ffb44f1",
	"grid8x12/star/twin-single":           "ee0e9828687b1be9baf551e98a55cb17a1205770fea182da4c063f2fcb6edbf4",
	"hamchords64/bfs":                     "4921b9ae069dca4406256dca0614b1042750522bf4e3597d13c202384864933c",
	"hamchords64/dfs":                     "4e113eef317fba58144329dac153ec92bfcc1e91d9339a5b1c2beb2a999d0063",
	"hamchords64/random":                  "671ada36a89a1ac7f608dbcc71529fff32ad8ffca6b74de9a41a452d80bec353",
	"hamchords64/random/fr":               "fd63c2ec2301c4e9505021f35e13878cc850304e1816d6f7567b9ddcfe9bd14a",
	"hamchords64/random/strict":           "fd63c2ec2301c4e9505021f35e13878cc850304e1816d6f7567b9ddcfe9bd14a",
	"hamchords64/random/twin-hybrid":      "b25b557d95d4943dffc78204ea484e7354ec5e39163892a3003e352da43e8498",
	"hamchords64/random/twin-multi":       "2128ea80809e4c9c7be9970ff3a6186f244dcade07ea7ec97e698207225ec9b9",
	"hamchords64/random/twin-single":      "39a3627d52337d5604e61e226ba8eb063661d98e49585eef189cfc9da7d68537",
	"hamchords64/star":                    "1300620995dd9bd3d342db7568a07f2a818784f0b7b6e0d3f8986b081242d63d",
	"hamchords64/star/fr":                 "b956badbe21db763240800cbb0dceb9c741f7dc6c852cc5df9de6a0ce626e6b5",
	"hamchords64/star/strict":             "b956badbe21db763240800cbb0dceb9c741f7dc6c852cc5df9de6a0ce626e6b5",
	"hamchords64/star/twin-hybrid":        "759e197b472ea680f6168dcd8b6e44a2f99c4fca186948e7ad73935bf3bae3dd",
	"hamchords64/star/twin-multi":         "f8990d0bf78b9af5a806f230aa79089fd71d1c8fae5f95ac94115fb3371fcdbc",
	"hamchords64/star/twin-single":        "610fb550b99b6902b5ed0675eff40d44e4132850c447a6a3658041d75671d759",
	"hypercube6/bfs":                      "849b5f6769bac817be88c63791ca502b869e70925c60dbbd035d711b00ea4466",
	"hypercube6/dfs":                      "522acf7adc6da985e05122a7198d341177309ddb8cfc9bf28bd3ef6dd04ca49a",
	"hypercube6/random":                   "832fb8f80e249242ea7f64fb5b473c0b9bcfe6c7e947c2675fd781bd1731351c",
	"hypercube6/random/fr":                "69a57f45cf414de5a1b60d529213dc1a39ecb86f618b84f556eea438f483dbe4",
	"hypercube6/random/strict":            "69a57f45cf414de5a1b60d529213dc1a39ecb86f618b84f556eea438f483dbe4",
	"hypercube6/random/twin-hybrid":       "689596af156355695ba361b8b525b8dcd35c8ff62bdaa9f428b63e4cb1909494",
	"hypercube6/random/twin-multi":        "69430d44c8a26a470ed609b300e3801f4ec70ea209a5cfbe25d49061d7cf1d35",
	"hypercube6/random/twin-single":       "86256354a4bfef8d67b337fd8d12a6f5ebff15be6a2bef3fc4968b107707667e",
	"hypercube6/star":                     "849b5f6769bac817be88c63791ca502b869e70925c60dbbd035d711b00ea4466",
	"hypercube6/star/fr":                  "c7a03b706264a598df4e9d00ed3e92c6786f55391063b382791dfbca1a689a51",
	"hypercube6/star/strict":              "c7a03b706264a598df4e9d00ed3e92c6786f55391063b382791dfbca1a689a51",
	"hypercube6/star/twin-hybrid":         "8b12b22b0db515dcedc11cfee49ef294acfaf7f7440ea716030c5012682a5394",
	"hypercube6/star/twin-multi":          "172ce6ebe2fbeea4b30a4d82a62a895c21444a495ec14dacc58e6811e80bdefb",
	"hypercube6/star/twin-single":         "25b5c229f0d2489002a4d570cf0dcf989f579532da9486373f5a5cf64dd9de66",
	"wheel48/bfs":                         "45c1bec17cd08254a1abea9ab198cd16d34b91d3b275723f0fd078a057024f22",
	"wheel48/dfs":                         "f8b013aae4fbe7e718666b367326214e65e841ed395e093b60be310426c4a69c",
	"wheel48/random":                      "0c7d075c9f0e6841824300be202421541e2338a1ac8d354191014717edb0d4bc",
	"wheel48/random/fr":                   "53112253efa59e740360e1efce19127e4890e5c9932987fde289f299fa5c7751",
	"wheel48/random/strict":               "53112253efa59e740360e1efce19127e4890e5c9932987fde289f299fa5c7751",
	"wheel48/random/twin-hybrid":          "3ad17918253aabc9af5c65d52e8621fd7e29db79ab4f8cd9f175c114fb37011b",
	"wheel48/random/twin-multi":           "3ad17918253aabc9af5c65d52e8621fd7e29db79ab4f8cd9f175c114fb37011b",
	"wheel48/random/twin-single":          "3ad17918253aabc9af5c65d52e8621fd7e29db79ab4f8cd9f175c114fb37011b",
	"wheel48/star":                        "45c1bec17cd08254a1abea9ab198cd16d34b91d3b275723f0fd078a057024f22",
	"wheel48/star/fr":                     "b171bebac5e547b6aca94b155531d3b3dfd897ba2563f177deaacbbacec38807",
	"wheel48/star/strict":                 "b171bebac5e547b6aca94b155531d3b3dfd897ba2563f177deaacbbacec38807",
	"wheel48/star/twin-hybrid":            "acf25b05ef44412c1e4d997b7f7a08800f48b5c5796e68c5f9a9dddf540d5cfa",
	"wheel48/star/twin-multi":             "acf25b05ef44412c1e4d997b7f7a08800f48b5c5796e68c5f9a9dddf540d5cfa",
	"wheel48/star/twin-single":            "acf25b05ef44412c1e4d997b7f7a08800f48b5c5796e68c5f9a9dddf540d5cfa",
}

func digestTree(h hash.Hash, t *tree.Dense) { io.WriteString(h, t.String()) }

// relabel maps node i of g to 7i+3, so the corpus also covers identities
// that are not dense indices.
func relabel(g *graph.Graph) *graph.Graph {
	out := graph.New()
	for _, v := range g.Nodes() {
		out.AddNode(7*v + 3)
	}
	for _, e := range g.Edges() {
		out.MustAddEdge(7*e.U+3, 7*e.V+3)
	}
	return out
}

func pinnedCorpus() []struct {
	name string
	g    *graph.Graph
} {
	return []struct {
		name string
		g    *graph.Graph
	}{
		{"gnp64", graph.Gnp(64, 0.08, 1)},
		{"gnp96-relabelled", relabel(graph.Gnp(96, 0.06, 2))},
		{"ba96", graph.BarabasiAlbert(96, 2, 3)},
		{"grid8x12", graph.Grid(8, 12)},
		{"wheel48", graph.Wheel(48)},
		{"hamchords64", graph.HamiltonianPlusChords(64, 64, 4)},
		{"hypercube6", graph.Hypercube(6)},
	}
}

// exactCorpus is experiment E2's small-graph families at a few seeds.
func exactCorpus() []struct {
	name string
	g    *graph.Graph
} {
	var out []struct {
		name string
		g    *graph.Graph
	}
	for s := int64(0); s < 3; s++ {
		for _, f := range []struct {
			name string
			g    *graph.Graph
		}{
			{"gnm-10", graph.Gnm(10, 16, s)},
			{"gnm-12", graph.Gnm(12, 20, s)},
			{"gnp-11", graph.Gnp(11, 0.35, s)},
			{"ba-12", graph.BarabasiAlbert(12, 2, s)},
			{"bipart", graph.CompleteBipartite(3, 8)},
		} {
			f.name = fmt.Sprintf("%s/s%d", f.name, s)
			out = append(out, f)
		}
	}
	return out
}

// sequentialOutputs runs every sequential algorithm on g and returns one
// digest input writer per output name.
func sequentialOutputs(g *graph.Graph, withExact bool) map[string]func(h hash.Hash) error {
	c := g.Compile()
	star := func() (*tree.Dense, error) { return spanning.StarTree(c) }
	random := func() (*tree.Dense, error) { return spanning.RandomST(c, 11) }
	out := map[string]func(h hash.Hash) error{
		"bfs": func(h hash.Hash) error {
			t, err := spanning.BFSTree(c, g.Nodes()[0])
			if err == nil {
				digestTree(h, t)
			}
			return err
		},
		"dfs": func(h hash.Hash) error {
			t, err := spanning.DFSTree(c, g.Nodes()[len(g.Nodes())/2])
			if err == nil {
				digestTree(h, t)
			}
			return err
		},
		"star": func(h hash.Hash) error {
			t, err := star()
			if err == nil {
				digestTree(h, t)
			}
			return err
		},
		"random": func(h hash.Hash) error {
			t, err := random()
			if err == nil {
				digestTree(h, t)
			}
			return err
		},
	}
	for _, start := range []struct {
		name  string
		build func() (*tree.Dense, error)
	}{{"star", star}, {"random", random}} {
		for _, search := range []struct {
			name string
			run  func(*graph.CSR, *tree.Dense) (*tree.Dense, Stats, error)
		}{{"fr", FurerRaghavachari}, {"strict", Strict}} {
			out[start.name+"/"+search.name] = func(h hash.Hash) error {
				t0, err := start.build()
				if err != nil {
					return err
				}
				t, st, err := search.run(c, t0)
				if err != nil {
					return err
				}
				digestTree(h, t)
				fmt.Fprintf(h, "swaps=%d k=%d k*=%d\n", st.Swaps, st.InitialDegree, st.FinalDegree)
				return nil
			}
		}
		for _, mode := range []mdst.Mode{mdst.Single, mdst.Multi, mdst.Hybrid} {
			out[start.name+"/twin-"+mode.String()] = func(h hash.Hash) error {
				t0, err := start.build()
				if err != nil {
					return err
				}
				t, st, err := Twin(c, t0, mode, 0)
				if err != nil {
					return err
				}
				digestTree(h, t)
				fmt.Fprintf(h, "rounds=%d swaps=%d k=%d k*=%d\n", st.Rounds, st.Swaps, st.InitialDegree, st.FinalDegree)
				return nil
			}
		}
	}
	if withExact {
		out["exact"] = func(h hash.Hash) error {
			d, t, err := exact.MinDegree(c)
			if err != nil {
				return err
			}
			digestTree(h, t)
			fmt.Fprintf(h, "Δ*=%d\n", d)
			return nil
		}
	}
	return out
}

// TestSequentialLayerPinned compares a SHA-256 of every sequential output
// over the corpus against the pinned table.
func TestSequentialLayerPinned(t *testing.T) {
	check := func(name string, g *graph.Graph, withExact bool) {
		runs := sequentialOutputs(g, withExact)
		for _, out := range slices.Sorted(maps.Keys(runs)) {
			run := runs[out]
			key := name + "/" + out
			t.Run(key, func(t *testing.T) {
				h := sha256.New()
				if err := run(h); err != nil {
					t.Fatal(err)
				}
				if got, want := fmt.Sprintf("%x", h.Sum(nil)), sequentialDigests[key]; got != want {
					t.Errorf("digest %s, pinned %s", got, want)
				}
			})
		}
	}
	for _, gc := range pinnedCorpus() {
		check(gc.name, gc.g, false)
	}
	for _, gc := range exactCorpus() {
		check(gc.name, gc.g, true)
	}
}
