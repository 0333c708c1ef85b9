// Unit tests for the crypto substrate: SHA-256, U256, Montgomery fields,
// secp256k1 group law, Schnorr signatures, CoSi collective signing.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "common/serde.hpp"
#include "crypto/cosi.hpp"
#include "crypto/schnorr.hpp"

namespace fides::crypto {
namespace {

// --- SHA-256 (FIPS 180-4 vectors) -------------------------------------------

TEST(Sha256, EmptyVector) {
  EXPECT_EQ(sha256({}).hex(),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, AbcVector) {
  EXPECT_EQ(sha256(to_bytes("abc")).hex(),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockVector) {
  EXPECT_EQ(sha256(to_bytes("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")).hex(),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
  const std::string big(1000000, 'a');
  EXPECT_EQ(sha256(to_bytes(big)).hex(),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

// sha256(pattern_bytes(n)) for n = 0..257, generated offline with Python:
//   data = bytes((i * 131 + 7) & 0xff for i in range(257))
//   [hashlib.sha256(data[:n]).hexdigest() for n in range(258)]
// The lengths cross every padding edge: 55/56 (length field fits or spills
// into a second block), 63/64/65, 119/120, 127/128 and beyond.
const char* const kPatternDigests[258] = {
    "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "ca358758f6d27e6cf45272937977a748fd88391db679ceda7dc7bf1f005ee879",
    "4a80a67af76ac958d9b3b9af012f83a552196b0116e980d91a315c95e62f922f",
    "17aef23a39d753e713c203c152454d29fa8e39a98e83a69b39a5094dba9ae951",
    "2aad11f94736f39dd139082c65f4b03537584e4a49221847e098238ddc6d153f",
    "f74b1421379962a45534bfff59f3d39431e8b80cd08f00de2d5a252a87753da3",
    "262957a1ba4d188c93ee074331fcf808a10487c54254abc5d20f91b76b0491f3",
    "d68796b7712ef368707a713257728d066d10964d9ac113a284888979415d588a",
    "dcbc821bb9a36f997efeabf7764797402a041575c40539ea9d549503d3225409",
    "24a1108979c137efa170e71c7f5d843874c1d3b39f812100569f10b1996f62c1",
    "ba3f51c8b1198f14620114fe83ba0c6bea120a466cdf996ca3d872669e3c38ff",
    "2b7795f34bf1bcfdf09a01b7987ec208d0808a16e48ab0d0bdc881192ed71ca6",
    "f03c8fea15a29f08284a8e4140a01c17f86d08054ffd9509e16b13693cc42435",
    "16675837bad66e5d8be4c047faf87f8749978c17b1d04b977f87dddfd5bc2ff4",
    "221043803819aeb68b6dcff0adf31f5031581db65e621c130056c616dc342cf1",
    "c0121582635a552f8e60baab7923fe1fc270423aae80c3bca723cc76af593a89",
    "bf1bb93d74f56e14ad36b4e45c1a7c75a32d93df95150c3e280a45bc7623420c",
    "6cf6584e0380783b1420a41616c7802cbe7f6ae72ea91c00e52c530e7a243ca5",
    "812f635d36626ec8d6d51045d77f21f71c6410494795ab61fd8332f808eaa75c",
    "d6166ef39d724209d8c495698cbfafd61120b8fa5afe095311bd0021f18a4b10",
    "a83fae9a0c8247db228230415c33dac27608f9768cc63a09ce0b305e35f3fbd0",
    "54be4b03654a24a9a39a20382c24d7a0498385d0ebbc5bdc8c5cd75ecf823757",
    "0593518b5a52d7e01bab2c58d8011f25711bc5af69b152062917fc840438a46f",
    "0a0fe347b677937abbf6808fc12cd8bb163a2207459dc3a36d99b8bcf54d9832",
    "cd881948c51a6d9435b812ad00fb10e11b6f4ada57daaef4dc1cad1adf4d897d",
    "76c385562d302bc0f65e5fc042125ac546346fef3f0290e56e81e9dafd1a94bf",
    "10701c8195e71e13ba28c34b8c20cca04fd350ce3125b7f4a2956865ec30c35f",
    "e23c4022ad0e2e97798e808c5d1c5bc903fcb415acad11a524b8ef5decb2406c",
    "410652a8aa54d81da9d120be965cf682fab444e31209c606dbe18701fb7f7d7a",
    "842e8b2ec7692ad32049919363370075e3e4085e2ae15a136afd7ebade72b65e",
    "caae9a259763141f60e33b4d9eefb7064bf5295f6ea134ecd3cff8c75462ac79",
    "b40a28e1f3c2313f0c11d4cac74153540d766e4fca27dbbaedfbc2ea6c1e8d30",
    "bc9aa1b102854f1e4b21064c8d8552a658396222da87d1d75158f1fb15989168",
    "ba2525a86a58dca8882443e63aebb5cba28e46d3eac03ac86ada03154bf39d3f",
    "b7718965c30b9a89a2dddc0fcaeff52edb5bbbb34d3c453db8b7befdbb751215",
    "f8e4cbc4f4ddaf53ff80e4485a6cc72b8a9258abf244b6f2e96c65dd852f4a76",
    "f13407d53a6676b909893a22597b96de0fae3295419e788749cf0e076659b82e",
    "09475090c09806082901c22b941ee1ccf64bd34f3230ea1453ed81302060cc7f",
    "31d5d52d3e26ecc8d2b90bbaf3536cbee79834affc74c8cf1357cc4767699cbe",
    "6e37397e43bc3abd83af2354f800ef17f92cedf3458f53325c1e4ad05ab78c1f",
    "2c5acec66ef219b615930373916433c11a1366a8395be14b2412fa9150115b7f",
    "f2835d6b1ef8f3104fbbb6ec1863d5263ccdb35ad128139b8a4fcb0a14e92e0f",
    "710ac95780e9560bb84483fd03d2603c03ffee45887af2149f64fcd8e271a703",
    "98f0a3da85962fe089448268ca36758c43b95a836c8f6d392ce071e6cd8df294",
    "cb4fc478d9b0a365bd0d19f9d0bb74c79c080308c91c1d7d25610f101d1bce0d",
    "233115cff023a05c3c574f104422c3bacba633dafa7da71cf8395becbae2e244",
    "3ffcbbd46e00096b427006d71983dbd61906c9c33418f177c91ae102c7fed024",
    "b992da42a805995c855a4ecc0c7b4f4310d5972bae9edbf2e1f2b9ffd59a7707",
    "a76bcd9e614588d92f6ad18599cc025c2e21c38ed1127d040f83ca356af2edff",
    "00b9883f6ada7ba1adeff0517e20346fe50af9c4d19ace2aa85b8845cd44ab5c",
    "ac073bb0beaa6b285662307e4b566fad47e632fd792a38d193d9b60c2e5718c3",
    "dbd5fdcad0fcd29408694c8953410848336d4360f2b72c14a9ac628a154c0adc",
    "af0041f8a62ed1c34dfa9afd0a17aba5cb85d265d45cf02c006d2baab13b4365",
    "9b4563a486a65e769dcb192e0a6659b96ab2b7b6f52bf9091c5ecab75ad9fb9b",
    "df0dfd870292b2cb91ca3d2df4aeca24947f6ecc609d3bf6ed64dea8a4b5be69",
    "16ed9c4697ca11d5f6fb25ea7900252dd4cb97215d7f6d0b2bb3e2a86ac0ec72",
    "939ada93b2fe1e9c596d767bb408567c83e253667f0b25e5be8e16f35f2cbac9",
    "ab84281f3b181e6cfc7cf870c7f3e7912be6fd1ac49c7dd6b21f6c25bb9a5eaa",
    "46084278e607470669555dcbb4927df877d85663b0bed62ee31e769714a77d83",
    "dbdecd0cd48d8c3dffe97fec1eeec06dd10b4e0c8035cd82f40185aa2d142f83",
    "c8706e0b5979a41db9094a4a5ff1a19babbcdd4d1204c3e140981faeecc94cf8",
    "f8a1d57f033ce7e62290870f950025b3396c445c55542480d065f0554dc0eae2",
    "6e5dc5ee1806926ba4bb9f4fa79276a040a15ac10811b04d80e900741703c6d0",
    "6073f83b09ae82016cdbe24c18996c48f0eaa08ca675d0f6b90b807fc29e0149",
    "b337ba9b0c69c391364e985fdcb23a889887e59800832c92fbfa22b8a3c40304",
    "9d6a3fb113b586b4ab97bc11c993a27bd9b7bbcb756e0646083dc47a679600e6",
    "d513c6a4c03ac076f0d41c8645233e8ec97f7acf93bd442295f8e4c75c30fb25",
    "13001f3258b62efa5e2be644d50f970fdf99f466466cae528ff083054db7f841",
    "1653e30a34fa1f2ef632b4c0594e94e696d6e2b0238d498a40df65808b9a7eab",
    "8fd85efca33abf0dc54f345264eba2fc5fb394872683ccc032f8021a5003e5fd",
    "fb4dfe5aa11a50089cba1b05012caf00a279bd22a22dd00caf9effb0863af68e",
    "b08e101e14abd95b007067e8bf9f2d6d7d83ebb306622030d25b8f02a6c63693",
    "f60e389e54f243fc70bb7ed4e44ca3dc0c5efe4a9ff2385acf7d2120c0a1a665",
    "ab10ab1b874f13075f84de4103f511f41efbec4167808730045fe0202c0f1c2e",
    "6bf852344056dd97e8ee17f1ade242dac88784b68e13b5a6021e2509295b991d",
    "ad143df0ba4a75f46a89da6323856c67af23fd9ec2314968cf3be98c42f86746",
    "d315356b49ec9276e55a446adaa841bc604fc0f3432e0e93f75fb9fa1afc3120",
    "5242db27385fbbcd1d2c4ec281b63758943007aff7f5f92d18640796fb160ea9",
    "d6da5bfa422e5018ec7bdc39b48300d1caaa3c6210ee6a940c16734ccc712117",
    "2f391ed6b4588fdddabf2afb4c4054772fc3a6878e11cc9974751aded82f818b",
    "6e0f69d1b09fa647e8b20465b8dde48d5fbe82b14b4dfc3f4b6b17fd9864f4ce",
    "8385326634cd6f2ade82b191066528f70f45f0d5e0b8c5c7f5a407016e6a07ac",
    "64e480b23f0457cc09c6045863fa99c5e5172c674380ad5c8f518a5b94ff1d4c",
    "b822feeb116a5bfd1f761873855914a597f483ef939dcae7eeedbad202ac687a",
    "1ae56af10af1fdc3bca6769f000d9d4af5c5c615a249dfb2e48e4f1f93919be9",
    "352734af26b50ecec375a1a7a72aa250029aeecff4314b67f850acbb35f2372f",
    "bbeffc3a45b381e4a1b497f8c51235590bad88859769b336f7daeeaa5e406d82",
    "f2ef14fd73b48e7fa3b0c4b38a91b2631c499956659e99ab564ebe54ef84b0c9",
    "a6d19b9afd91c15a699d0a368449a222e492f8e809773752789bbbf5a4eb8dcb",
    "57218865054203a355da67036a26688e29d77e52a88325a71e11a7ead40da4bc",
    "1f5d4b9d3add403f735f748a26d5cd1bba262958a1cbeda293f29866db63758a",
    "e8899b7a1b92bddae077eec05805dd6e9a3698d73583c036ccc5ce5cb9e77c31",
    "db2735d8eec96eb180aaa217336f765b201193503244e08dcc5538ef81577ebf",
    "d23235f2dddd1b2f8833cc1922778dfc9df816a0d687ffa6bf472e1d56334bf1",
    "66508e4b92f8f3f5c1fe5cdbe73bb87c2170ec6ef0ab948545f6ccee9dfc24ec",
    "c8736de66d8bf2834a0eddb432eca75a8b84ea1c82b9b3b7291374471700789b",
    "6e6968bd9fcbe5dc5fab9a474b353fe87360b86943a867b4907630eadbb5cd80",
    "1ecd026221adf1ab2f8b2ee70743497cea0d4a2421962f4719ed1b38448bfc80",
    "62efc30d8ffab16f81842a105bafdc9e3371bc2b0af6c840ee27a9cd4dc7ec37",
    "d3d387c7f04cfa925f04c1a81cd26c41c5331d79f6bead38497347214167d6dd",
    "b493defffa04821dbe4b757ed039293591680fd3f05a08182b145193205fcba0",
    "83315009356e1b4f0ac57dc8af20c6777f5d98d275e2a2e230322e4bb1cb0a18",
    "5496a287a2be3938d7ece0db6e32d32e31b602645a9d832846484831a49c4f38",
    "a072681dbd185cead5c938d152d231cdabbd85408831eadeb41570b9fe02b73d",
    "4814f8d16ef045a193077ba4452f3919bba92334096e984e7daf0ae95567b4b9",
    "5acaf83c0edbd903d6b08753c25f817892bbba274c7524ddd11d84654a448a95",
    "fec5d243c0af8edaec8e4ae97751123635554225ee89d90364647275fe5edbaf",
    "e5870bb50411c36c5815e806e9bf76019d9bcb64b171e1a720952830c91a7e2b",
    "dad0513def7ae493a4f5d2f370cc66f749dd0f42847f2090a8f66079beab3777",
    "16280aa64c0452058e623a0a2c3a34e9f45d4fc5ce9cfd3c8d47f5c54c5c3cd5",
    "35a67e9d58774a1c46f485068891200debdadba4283ebb368c01ddfb2157d454",
    "2d9743c1caad343dbb42d591b307dcad9879a9568fa2adf98894dbb62b4a096a",
    "ecf2bd67b292d09ff421b2f279b9f9525c17b8bbd71711dba7fae1fab799c791",
    "c7257986b43b9cd02b4083cd2749e26446d183207e5799ece7e474bc69239100",
    "cc0a4e02c4e4804411cc269de174aed03b12a3897d9181b227cdfaa838b19a9d",
    "cd11c192e356e941ba1c8401c6e1e3584b801363ab871239a0b59e7f73ddae14",
    "83602167bc0fd4689ebba2e3e1a103b71b899b556ebdefc0ef27970a23143724",
    "73f060cd9120df8516941d4725bcfb0003f79a4d380d573e89609607f14927f1",
    "3aff8a915add96fd9b2b7a060069d97a65145dad43f199092ec3b7fde41772ca",
    "9773fbac8194c3d789af101b49b6a26073076895ef6e0f658432849dd477a43f",
    "070a538f085dd94821d4dc197c5c8b791051891d4fa2a1bf25d3c275236676f7",
    "05a3caed94d5ee13402c4422abc9fa3ab0dbda743a8480a12cafefe5e5da992c",
    "7dbb18dee0eb18da9eb73bea2044dca700eeb54302a539ba77c8fade73230c22",
    "27f27eb488368deb9c8ff2eacc8ce92253aa52d87ef3f22e696134f20dd3c3d6",
    "9210d7a78f0034aca43b3eed23b133adf55d68e494c5a7d6bcfd60e37ad4dcce",
    "1efb8d002b76d2a184f6474143648e3d22e80f4078b4fc265cad47ff713a39e8",
    "432d4ce0fcae1665f79a402d68fe0a88e7053cd2686b92624bc9e993eff99d8d",
    "5072b7a9a4cda7f6d80f1eff09b8b9653201dba22319daf32c6c05339d57f483",
    "485a94e53eba9717a5d8b7b4489cad92a752f1c5722e7dfd29dd164b7c438d11",
    "72b63785704123441e7405a2620b859d1f107604ef5882e2674e82cc40d173a6",
    "21c10b3ba180b93247fab48bd9318b4cb8089e313676ce507c18710864e57e8f",
    "29f0da6cc68ad100590484f89e7cc4d16c91642bbb23fad748ac9deb4206d675",
    "d348b6d1071e8fe25c59337ead6d025ee7b7dd0c4d54ec9adab41f6ce9edb609",
    "e2a18c57afca3a23fa410fcb6f6962b810640d000a031e05066747018adae12a",
    "ac44126b75422206a1a7455715d78974ff39adc73372d2b8509810afb0d2ca1c",
    "1ebd327a3954e22e33dadb8464ac9db459bad7b2aa5241797c5dcd485fc6f35b",
    "b90e00961e21fe4bfc7f83a0c31bbdc95f2d79ad826782ca600402a59620eb86",
    "72d0e2a0858edc914a5fca7230828aac17a76fca08661956dae8cb9bfd51f210",
    "fcfc7c8ac3684d5cc097d854cd81069a7f723280d08804a129fe9216b2f9db0c",
    "5b18610bdb9e60ff099298a621b9b05cb80ebbd140c07541380118facf5f97a9",
    "47d95e995c5c9f6bcc378c861dc356536cd920693c61f0106c9cac3170a103e6",
    "91a5ae99e2a44ec518ff42fab89e8e70f0e7f9a28f4e69cba3fc5c56af0f03dc",
    "8660ab7e04a5c6bbf90e7f808e5b0a6dc4dbe4b279799dd5de29bef50f6c6a08",
    "06a399ef16e6c6fb8903d94243dde6a5c6a1be8ac7c9652090900abfee0ffe46",
    "fdded8812b3daeaaa96a13b9c40353d96cf8ec16f266aebe3f4cc1c69bc4a731",
    "08ea26b1649d5240dc81ef4c0666629043a37f37875fab82b03ac55872de8670",
    "472026171df17a78371110a84923e1b297f051a98bd04d58c029f95a86972c26",
    "562f6aed9445a63c8c0244caa4b99900eb17e93a757342fd8000e864e3652ae6",
    "969522b2749dda41deb21b4721b935370a00c176ec3c61831a67d549e26ae1b1",
    "dbc7d4da6e3dbb00071b0f8145cd5bb61f7c60d9e61eb19fb946dbd2cdc3b8f7",
    "b7de07b8c3591c78b4df471b606b8f592ed5fcbd6169a2b93e3c50075335f3b6",
    "ddc85e17ea79d3ca0f2498677fd6095dcc717203719e4aca1a79c11e7d5e6825",
    "8fc6c39690a3f213c60d848503f4369517c7a57a1443b0a0b95af74f985f7d72",
    "677a611354a47bd241cbcfb2aa0a2384dd6957dd3f5dcb6ddb9d1de381c0c993",
    "a20ae1310258f179e88077194e00aa589b15ece4235518097ebe757f31481741",
    "d664d2720f2479c76ff98f70501802446aea2c416f8b73061996ef8d28b6dd58",
    "c1dc077de765ff6f4c664bd4af8e31290991635b7922c572b6541d0634650280",
    "0ef73e0a260dc61ae71aa0a80db5df84c985a97a5f86ea9b64299254db32a67d",
    "24884a0c9b5c97dad31e90a4aff4425cd36cefa12947b6ec5c065b90d61900e9",
    "948c19afca495f02484b92f3b4a09da50b524d6099b80d44a1ec1d3904e9d62d",
    "342561910f50cc5de2c946e7e3a797c5f61ed39b4be1353745f8c5a34bc3f234",
    "362b57b4a210ee5bf3eed52af1e6b8a36be40b4ea424b6c91478435b7b95c4f1",
    "d8ead3a966d785884b2f2a920d7b438e58bf46aac27d4d7e450e27d7df8adc5c",
    "456de26e31f93f05b65a6796db2d5d76bfc6373f3ef9f36052676e23db717da4",
    "a0378a1295968ec4efbbfe25badd2c53800bbf0d55fd3664f0d4026112d4c0f5",
    "2c9aecb2699828820ef9f8cc63e13bb4c24e3ec249b6d50ce4d2f2eb964d72db",
    "031cbaf80b022a32dad77f03ef7793a9e22929139116d80485a36e8d41b13dc8",
    "2ea0f9291024c917b30b30e0f7a07398f22abe5da3ca88e66eacabe208f5c52b",
    "5895ad1e8dd59d9475962c2bc30925661c8a67788599d62ce7e075f9db51d9ff",
    "c8216cac93c7eca08ca9a916c42edbe7f3afbbcd51a6e1fd27a7a5103dfb786d",
    "1f15c6d6cfc257c07f26d7e32bc1bc10f425324aa129b6c9e79581c954c0819f",
    "16ce0bf714077109a1d22caf6769820f8e7cebb831d6cb6691d42659a5acc782",
    "c9e39747d7243f9177c933dac4975457574ac06fd34abdf36f210f16ced1bc4f",
    "a5ba995b6f9a04512080f2fd1a58aa40b4c6ef54ea9c09ef15ee108c4eb11130",
    "59e233b5a46c923e612fae5b1c73c0bb3606289da73af150a5d5f9c4edefb5c3",
    "00beef35be2bd83108956cc6d7d552d6ffb1f3c669780c19773f0a264c02ee87",
    "eee5e06c239a58ce8184b539ff2fa177b9169c53fd1a8390e046ea2fc227f96f",
    "9d4385f69167a38e4ba3dc019d0c7a59f169581c4c2376ce6de714ad9aad53d9",
    "01e95bc27438627f93ca853cb896d34d136edb63c5bc8bab08d84694cdd77821",
    "1d6f1ec0f3e8b8c5e559d934e102405ef39a63483959a90c802a7e61a8224873",
    "4457e1a9fede8e690ecc25b2ed22be3467c10d7e6365c80b5716e798b52df532",
    "12c3d99af1ea8f5c15b01b6becfdb87f4f07927060b472d88c00982f283a7218",
    "b71e949d37426cf12e64007546e1d4665ca5f4b4e12431b3e8aeefbfc5c193a0",
    "031753ccca9fbc9b981b8551a87860a017ea986923938bdd837d797b9c40ebc4",
    "915dac87643017e9e423b92e74831bc8c322cbbd1b6ecf7e503bb3a36c8a1a74",
    "da6be41aa05525e2e4582cb3cfc3a7fe6c98082179356ee4ffe2849815897963",
    "ed95c5960072b9187ed4cb06f837b306792784c6e75dfbfad67aafedf3a40300",
    "4a263c7fa2323c290c1ad1bc0f1f6fd316649a13d7f9e964a3974cb3fd351adc",
    "37d64d2dba275c02328611fe1c5db716536fdf195756ecd0e70cf9cd0d06cbbd",
    "ea3fb7815c77caf2b23c274fce6028641c80e8c6a4b479f7804686b253817906",
    "0745d34de693eca7c730604ca36a9f4407b7f6c3ea5c30728462b992b1be94aa",
    "58fcb664b50539a476ecfc83b308106c018a836929bfb940dfa13460a7c8897a",
    "3aec8bc37a5590ae172e8229b22ff527f0083fd63ee572be709b4af45e6466b4",
    "be0c11029a1ff85bfba7150706be12ad0a026e28022944c676df6327186c2a17",
    "5517ea806c7a33a0f6baf95547c0f7beb29acefd4e51a1515c0e936a0abd77ae",
    "451607a132919c22517661f01e14701de5557cb41d439d25b0fd8a4f57e9a9aa",
    "8757314662505aa1935d81e27c9da84c2e0c673eaa0948bdf450848bd594a9ad",
    "310c89825892ae405fa144aaa52a2828d315e6f4449810de22c1f16e4bcae94e",
    "9b4c03ecc81d8e39ad0fa93613efebd166375b41983a8f11fc46baf8b6d32448",
    "8ab50e362c158dd77e11d2bf91daaf98fca2c4552672c75b7d8cf6248542565e",
    "78bbb470b40e45fffa0526d26567d7d3887d082518e712cc05d0a8f4903e231b",
    "a3e6abe72758a885155cae58448050f69c94c9cabdfd3d461c9f56564ce1e89b",
    "e441f518014d17102520744b6e673e31de8b163997ed47b92584643e24dbb6f5",
    "7b99c7c09f552696925be657395b1d4a9571e7589c832a80bfbddb6f03b62bb1",
    "d564b43ed4655fe39fdfa89db54d425fe66a9c66556a01d07c6c56eb5f2e855e",
    "3806f7cc5c32d0a0efc9c772b68a46149d6a5b928cad4ae970c55289bd25e2e2",
    "17205ad5db180de99bc891826232abe17dcc23cd6abfd9183840e6f1db966103",
    "0395ba937c6bd9c728c2088f926a27090c0b9a9836e0afbcfa0b5bbfc3cc58a5",
    "5151d419c12841d9e1e7a0164febe0f2420ea27edbed45ba6ca967615dfc0e36",
    "5fcc0b6d93945477e0153ad346cebddfc807c7ec300ca72d13ee3933af3e2c91",
    "3671dbb3f0738b379a19f622ff690c8f298e95313f206a221500e919b57afe36",
    "df5fbc31be6f7c2fa6bb96426983655ea0190228d879dbb66a64a8b290798459",
    "1f09bad27aa6f54126e26885cca8b1cd747d36d31ce4454e2528e17694accde5",
    "3ed2109c678b2f844976a58803dbc000489b61356514132d9a75aa48c5dbc9ec",
    "2d999ce379ed08a8da0ce7ba2c4ad86baa3603e2f7f62c877e9e9bcadeb2d88a",
    "9a8ce16b7971223a013a8cd9e9829c704430f187247c671bf20ce138d13524ac",
    "d4ab868d5a92d31f7a6b5f1bf283e6724f00c4cae590b57c9df662f548d64aa2",
    "e03e654948d7375e9eda60390e37cf8493f6341a2e1eff870e837fd06b5bfe91",
    "cd509027f49ea588817228174cf8ace8ea96c778dc009a225c844ea93d076b7d",
    "a8098221df10185efd5d004ff15e02467981c9ac30682614663d8831d01fff49",
    "8ac00d43783ed7a2ccd68347532151bb8ac0d4ec075d2d2b54ef08b8fa76d2b4",
    "29927f1c5cc2642256df3f1208881967c3b8193a8b94aba50edf81e054a1115d",
    "a6b184b8edd4fbc44913606c1c196e4cba91d5e578fe62699706c3e9f1861898",
    "44fefe7fc6211e7c0447e4d86575c3701d9e4f2a8205d667afdd9f9a7f4f9ea3",
    "0e40fc73593ba96d20fcd10e295872f5492d7eae0277341444222f5f56470f6d",
    "b608986d8e772b9b4365dc94f6032d0808c3ed512d7af1196b3a526794bd723d",
    "8f411d47535776fc6ee05ffc2471534e279997b834e4a822c04a034e3a753d57",
    "3870c68c537284264c55dff1505ae748a9fb8d7be7f9b646dc082250db4735e0",
    "e4e91ed2c4edb9bcb410e6e70b9519491342f42bbc06b8cc949341c200041c62",
    "0a205cb4b52ac18277fc206cd956ded4e795ecc025c4c0073ee3dceac6677924",
    "64e69c9e3c746973f9f3408559437488aba83c1e35c9a1463dcf676337ea0bb3",
    "03913f8b1ad8d354abb1d1c19544c2713ee6f1457387967f26dced1c762e2420",
    "cb5e3a551204946697c51d41590c45fd411a8c8e276eee0dd2a075d18404c72d",
    "0aa551d16a93de2dea52b0068ed3a42ad6ca39630dd272f94734f15b0a791fda",
    "84c55dd4685a4c8340c9fd127435c2780dc3a028335fdba573464dbd01a185fa",
    "a1f404f4b7e96fdcaf2227623a1e7aa2921c96f620512f58c4e51ec813826180",
    "6feecfc9d672f71e4de8baeae7c771ebac6c4885f7390b68a005de0ad390412c",
    "444976bcb76b738c7b538a4af6841679246a87b675091325450c010bb564bb59",
    "bc75657f8399385df435205ff45f25a397362954ca3a7692b35227c3c0dd91bb",
    "03cc549a1b0a09af3bacaaa9f115452300d6fd7eca099f2c4ca50c6b8caa3cf5",
    "e9cbd1e2cfd9f90dd2272d9bf459cebe02f6abffb15edac328d21e051853548a",
    "476b63798768ea8282db4b461cadb8860df2893609244b8c59537dc8bfe272d6",
    "61b8923bfda2ac1e826fae0e8b90e96cfede80b4ed3219aee0482f10e32675e0",
    "50e941478b893b5af90e168d5b55f18ff0f8a5c7e986a06ca94ce67dc5e47e32",
    "356f3a70dac3ccfdb1132dede0962b03c7a8de863f2de37da5bb9e8c7babd8a9",
    "5375bb1c239b451becce0b6e9894cdf86160ba9234ac2ed747687422746803dc",
    "7cfd56bd167f18d124bab58e0de87686e52b8ded85434bfed1cfd265058e58f8",
    "8c70fe8f8ed8b142400b907d6c60a9b48dab65c595dee6eda85342ffb73e42a8",
    "2ba10e068309bce7a0f31db8643eb5feb6e28512b342aff5aa6f197647ab5d0f",
    "f12eb09166e1d2763734409bf7a5cc52b868ee4b2d8052916a726ca692fb0f99",
    "2518c11a273fc1e9a1874b2c4b0231a24f0131bed8883fb23e474c13f615570a",
    "409bcd710ddfc30c70153917b941cb252f6f9c63f1734fa35b7ac02a7e72e146",
    "9eac13f893a8226002b0de96eb9032bae4b447e52920a06a161b0ceca277d08b",
    "a1152fad348345f61cbfdd1391a5bb34a03facf0e8bf73e9e91e53cd87ec8882",
    "4a0692c358fccf912a1d7731199c70dc9abce0de08fe71a77f5e0744c0c073bc",
    "f5b7ea17443bf9ab835509c239d239d7c86d4800cf520de9e191767e9b5f3972",
    "abb86b688476d3442c6ec433411148e599dcd34e121af72173a9e550901ccf00",
    "71ad28143ba5265bbbe13e0a034464acb759e9e9e9b29ea29f0719fe14c1492f",
};

Bytes pattern_bytes(std::size_t n) {
  Bytes out(n);
  for (std::size_t i = 0; i < n; ++i) out[i] = static_cast<std::uint8_t>(i * 131 + 7);
  return out;
}

TEST(Sha256, OneShotMatchesHashlibAtEveryLength) {
  const Bytes data = pattern_bytes(257);
  for (std::size_t n = 0; n <= 257; ++n) {
    EXPECT_EQ(sha256(BytesView(data.data(), n)).hex(), kPatternDigests[n]) << "length " << n;
  }
}

TEST(Sha256, StreamingMatchesOneShot) {
  const Bytes data = pattern_bytes(257);
  for (std::size_t n = 0; n <= data.size(); ++n) {
    const BytesView msg(data.data(), n);
    const Digest want = sha256(msg);
    for (const std::size_t feed : {1, 7, 63, 64, 65}) {
      Sha256 h;
      for (std::size_t i = 0; i < n; i += feed) h.update(msg.subspan(i, std::min(feed, n - i)));
      EXPECT_EQ(h.finalize(), want) << "length " << n << ", feed " << feed;
    }
    for (std::size_t split = 0; split <= n; ++split) {
      Sha256 h;
      h.update(msg.first(split));
      h.update(msg.subspan(split));
      EXPECT_EQ(h.finalize(), want) << "length " << n << ", split " << split;
    }
  }
}

// Pads a message by hand (FIPS 180-4 §5.1.1) so a compressor body can be
// checked against the known answers on its own.
Bytes padded(BytesView msg) {
  Bytes out(msg.begin(), msg.end());
  out.push_back(0x80);
  while (out.size() % 64 != 56) out.push_back(0x00);
  const std::uint64_t bits = static_cast<std::uint64_t>(msg.size()) * 8;
  for (int i = 7; i >= 0; --i) out.push_back(static_cast<std::uint8_t>(bits >> (8 * i)));
  return out;
}

using CompressFn = void (*)(detail::Sha256State&, const std::uint8_t*, std::size_t);

void expect_known_answers(CompressFn compress) {
  const Bytes data = pattern_bytes(257);
  for (std::size_t n = 0; n <= data.size(); ++n) {
    const Bytes blocks = padded(BytesView(data.data(), n));
    detail::Sha256State state = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                                 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
    compress(state, blocks.data(), blocks.size() / 64);
    Digest d;
    for (int i = 0; i < 32; ++i) {
      d.bytes[i] = static_cast<std::uint8_t>(state[i / 4] >> (24 - 8 * (i % 4)));
    }
    EXPECT_EQ(d.hex(), kPatternDigests[n]) << "length " << n;
  }
}

// Both compressor bodies are called directly, so the scalar one stays
// covered on hosts where compress() dispatches to SHA-NI.
TEST(Sha256, CompressorBodiesMatchKnownAnswersAndEachOther) {
  expect_known_answers(detail::compress_scalar);
  if (!detail::shani_supported()) GTEST_SKIP() << "CPU lacks the SHA extensions";
  expect_known_answers(detail::compress_shani);

  Rng rng(12);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t nblocks = 1 + rng.uniform(64);
    const Bytes blocks = rng.bytes(64 * nblocks);
    detail::Sha256State scalar;
    for (auto& word : scalar) word = static_cast<std::uint32_t>(rng.next_u64());
    detail::Sha256State shani = scalar;
    detail::compress_scalar(scalar, blocks.data(), nblocks);
    detail::compress_shani(shani, blocks.data(), nblocks);
    EXPECT_EQ(scalar, shani) << "trial " << trial << ", " << nblocks << " blocks";
  }
}

TEST(Sha256, PairMatchesConcatenation) {
  const Digest a = sha256(to_bytes("a"));
  const Digest b = sha256(to_bytes("b"));
  EXPECT_EQ(sha256_pair(a, b), sha256(concat({a.view(), b.view()})));
}

TEST(Digest, ZeroAndComparison) {
  EXPECT_TRUE(Digest::zero().is_zero());
  EXPECT_FALSE(sha256(to_bytes("x")).is_zero());
  EXPECT_NE(sha256(to_bytes("x")), sha256(to_bytes("y")));
}

// --- U256 ---------------------------------------------------------------------

TEST(U256, BytesRoundTrip) {
  const U256 x = U256::from_limbs(0x1111, 0x2222, 0x3333, 0x4444);
  const auto bytes = x.to_bytes_be();
  EXPECT_EQ(U256::from_bytes_be(BytesView(bytes.data(), bytes.size())), x);
}

TEST(U256, HexRoundTrip) {
  const auto x = U256::from_hex("deadbeef");
  ASSERT_TRUE(x.has_value());
  EXPECT_EQ(x->w[0], 0xDEADBEEFULL);
  EXPECT_EQ(x->hex().substr(56), "deadbeef");
}

TEST(U256, AddCarryChain) {
  const U256 max = U256::from_limbs(~0ULL, ~0ULL, ~0ULL, ~0ULL);
  U256 out;
  EXPECT_EQ(u256_add(out, max, U256(1)), 1u);  // wraps with carry-out
  EXPECT_TRUE(out.is_zero());
}

TEST(U256, SubBorrowChain) {
  U256 out;
  EXPECT_EQ(u256_sub(out, U256(0), U256(1)), 1u);
  EXPECT_EQ(out, U256::from_limbs(~0ULL, ~0ULL, ~0ULL, ~0ULL));
}

TEST(U256, AddSubInverse) {
  const U256 a = U256::from_limbs(0x123456789ABCDEF0, 0xFEDCBA9876543210, 7, 9);
  const U256 b = U256::from_limbs(0xAAAAAAAAAAAAAAAA, 0x5555555555555555, 1, 2);
  U256 sum, back;
  u256_add(sum, a, b);
  u256_sub(back, sum, b);
  EXPECT_EQ(back, a);
}

TEST(U256, MulWideSmall) {
  const auto r = u256_mul_wide(U256(0xFFFFFFFFFFFFFFFFULL), U256(2));
  EXPECT_EQ(r[0], 0xFFFFFFFFFFFFFFFEULL);
  EXPECT_EQ(r[1], 1u);
  for (int i = 2; i < 8; ++i) EXPECT_EQ(r[i], 0u);
}

TEST(U256, ModSmallCases) {
  EXPECT_EQ(u256_mod(U256(17), U256(5)), U256(2));
  EXPECT_EQ(u256_mod(U256(4), U256(5)), U256(4));
  EXPECT_EQ(u256_mod(U256(0), U256(5)), U256(0));
}

TEST(U256, U512ModMatchesMulMod) {
  // (a * b) mod m computed wide must equal ((a mod m)*(b mod m)) mod m for
  // small values checkable with __int128.
  const std::uint64_t m64 = 0xFFFFFFFFFFFFFFC5ULL;  // large prime < 2^64
  const U256 m(m64);
  const std::uint64_t a = 0x123456789ABCDEFULL, b = 0xFEDCBA987654321ULL;
  const auto wide = u256_mul_wide(U256(a), U256(b));
  const U256 got = u512_mod(wide, m);
  const unsigned __int128 expect =
      static_cast<unsigned __int128>(a) * b % m64;
  EXPECT_EQ(got, U256(static_cast<std::uint64_t>(expect)));
}

TEST(U256, BitLength) {
  EXPECT_EQ(U256(0).bit_length(), -1);
  EXPECT_EQ(U256(1).bit_length(), 0);
  EXPECT_EQ(U256(0x8000).bit_length(), 15);
  EXPECT_EQ(U256::from_limbs(0, 0, 0, 1).bit_length(), 192);
}

// --- Montgomery field ----------------------------------------------------------

class FieldTest : public ::testing::Test {
 protected:
  const MontgomeryField& fn() { return Curve::instance().fn(); }
  const MontgomeryField& fp() { return Curve::instance().fp(); }
};

TEST_F(FieldTest, ToFromMontRoundTrip) {
  const U256 x = U256::from_limbs(0xABCD, 0x1234, 0x9999, 0x0042);
  EXPECT_EQ(fp().from_mont(fp().to_mont(x)), x);
  EXPECT_EQ(fn().from_mont(fn().to_mont(x)), x);
}

TEST_F(FieldTest, MulMatchesSchoolbook) {
  const U256 a(123456789), b(987654321);
  const Fe prod = fp().mul(fp().to_mont(a), fp().to_mont(b));
  EXPECT_EQ(fp().from_mont(prod), U256(123456789ULL * 987654321ULL));
}

TEST_F(FieldTest, AddSubNegIdentities) {
  const Fe a = fp().to_mont(U256(77));
  const Fe b = fp().to_mont(U256(33));
  EXPECT_EQ(fp().from_mont(fp().sub(fp().add(a, b), b)), U256(77));
  EXPECT_TRUE(fp().is_zero(fp().add(a, fp().neg(a))));
  EXPECT_EQ(fp().neg(fp().zero()), fp().zero());
}

TEST_F(FieldTest, InverseIsMultiplicative) {
  const Fe a = fp().to_mont(U256::from_limbs(0xDEAD, 0xBEEF, 0xCAFE, 0x0B0E));
  const Fe inv = fp().inverse(a);
  EXPECT_EQ(fp().mul(a, inv), fp().one());
}

TEST_F(FieldTest, InverseOfZeroThrows) {
  EXPECT_THROW(fp().inverse(fp().zero()), std::domain_error);
}

TEST_F(FieldTest, PowFermatLittle) {
  // a^(p-1) == 1 mod p for prime p.
  const Fe a = fp().to_mont(U256(0xABCDEF));
  U256 exp;
  u256_sub(exp, fp().modulus(), U256(1));
  EXPECT_EQ(fp().pow(a, exp), fp().one());
}

TEST_F(FieldTest, RejectsEvenModulus) {
  EXPECT_THROW(MontgomeryField(U256(10)), std::invalid_argument);
}

// --- secp256k1 ------------------------------------------------------------------

class CurveTest : public ::testing::Test {
 protected:
  const Curve& c = Curve::instance();
};

TEST_F(CurveTest, GeneratorOnCurve) {
  EXPECT_TRUE(c.on_curve(c.to_affine(c.generator())));
}

TEST_F(CurveTest, OrderTimesGeneratorIsInfinity) {
  EXPECT_TRUE(c.mul(c.order(), c.generator()).is_infinity());
}

TEST_F(CurveTest, KnownDoubleOfG) {
  const AffinePoint g2 = c.to_affine(c.dbl(c.generator()));
  EXPECT_EQ(g2.x.hex(),
            "c6047f9441ed7d6d3045406e95c07cd85c778e4b8cef3ca7abac09b95c709ee5");
  EXPECT_EQ(g2.y.hex(),
            "1ae168fea63dc339a3c58419466ceaeef7f632653266d0e1236431a950cfe52a");
}

TEST_F(CurveTest, AddDblConsistency) {
  // G + G (general addition) must equal dbl(G).
  const Point sum = c.add(c.generator(), c.generator());
  EXPECT_TRUE(c.equal(sum, c.dbl(c.generator())));
}

TEST_F(CurveTest, MulDistributesOverScalarAddition) {
  const U256 k1(123456), k2(654321);
  U256 k3;
  u256_add(k3, k1, k2);
  const Point lhs = c.add(c.mul_g(k1), c.mul_g(k2));
  EXPECT_TRUE(c.equal(lhs, c.mul_g(k3)));
}

TEST_F(CurveTest, FixedBaseTableMatchesGenericMul) {
  for (std::uint64_t k : {1ULL, 2ULL, 16ULL, 0xFFFFULL, 0x123456789ABCDEFULL}) {
    EXPECT_TRUE(c.equal(c.mul_g(U256(k)), c.mul(U256(k), c.generator())));
  }
  // Also a full-width scalar.
  const U256 big = U256::from_limbs(0x1111111111111111, 0x2222222222222222,
                                    0x3333333333333333, 0x4444444444444444);
  EXPECT_TRUE(c.equal(c.mul_g(big), c.mul(big, c.generator())));
}

TEST_F(CurveTest, MulAddMatchesSeparateMuls) {
  // Strauss-joint ladder vs the textbook composition it replaces, over
  // hash-derived (effectively random full-width) scalars and points.
  for (std::uint64_t trial = 0; trial < 8; ++trial) {
    const U256 a = scalar_from_digest(sha256(to_bytes("a" + std::to_string(trial))));
    const U256 b = scalar_from_digest(sha256(to_bytes("b" + std::to_string(trial))));
    const U256 k = scalar_from_digest(sha256(to_bytes("p" + std::to_string(trial))));
    const Point p = c.mul_g(k);
    const Point expect = c.add(c.mul_g(a), c.mul(b, p));
    EXPECT_TRUE(c.equal(c.mul_add(a, b, p), expect)) << "trial " << trial;
  }
}

TEST_F(CurveTest, MulAddEdgeScalars) {
  const U256 k = scalar_from_digest(sha256(to_bytes("edge-point")));
  const Point p = c.mul_g(k);
  const U256 a = scalar_from_digest(sha256(to_bytes("edge-a")));
  EXPECT_TRUE(c.equal(c.mul_add(U256(0), U256(1), p), p));
  EXPECT_TRUE(c.equal(c.mul_add(a, U256(0), p), c.mul_g(a)));
  EXPECT_TRUE(c.mul_add(U256(0), U256(0), p).is_infinity());
  EXPECT_TRUE(c.equal(c.mul_add(U256(0), U256(5), c.infinity()), c.infinity()));
}

TEST_F(CurveTest, MsmMatchesSumOfMuls) {
  std::vector<U256> scalars;
  std::vector<Point> points;
  const U256 g_scalar = scalar_from_digest(sha256(to_bytes("msm-g")));
  Point expect = c.mul_g(g_scalar);
  for (std::uint64_t i = 0; i < 7; ++i) {
    const U256 s = scalar_from_digest(sha256(to_bytes("msm-s" + std::to_string(i))));
    const U256 k = scalar_from_digest(sha256(to_bytes("msm-p" + std::to_string(i))));
    const Point p = c.mul_g(k);
    scalars.push_back(s);
    points.push_back(p);
    expect = c.add(expect, c.mul(s, p));
  }
  EXPECT_TRUE(c.equal(c.msm(g_scalar, scalars, points), expect));
  EXPECT_THROW(c.msm(g_scalar, scalars, std::span<const Point>(points.data(), 3)),
               std::invalid_argument);
}

TEST_F(CurveTest, MsmRejectsUnreducedScalars) {
  // wnaf5 recoding is only correct for scalars < 2^256 - 15; msm enforces the
  // stricter (and natural) precondition that wNAF scalars are reduced mod n.
  const Point p = c.mul_g(U256(7));
  const std::vector<Point> points{p};
  std::vector<U256> scalars{c.order()};
  EXPECT_THROW(c.msm(U256(1), scalars, points), std::invalid_argument);
  EXPECT_THROW(c.mul_add(U256(1), c.order(), p), std::invalid_argument);
  // One below n is fine.
  u256_sub(scalars[0], c.order(), U256(1));
  EXPECT_TRUE(c.equal(c.msm(U256(0), scalars, points), c.negate(p)));
}

TEST_F(CurveTest, BatchToAffineMatchesToAffine) {
  std::vector<Point> pts;
  for (std::uint64_t i = 0; i < 6; ++i) {
    pts.push_back(c.mul_g(scalar_from_digest(sha256(to_bytes("bn" + std::to_string(i))))));
  }
  pts.push_back(c.infinity());
  const std::vector<AffinePoint> affine = c.batch_to_affine(pts);
  ASSERT_EQ(affine.size(), pts.size());
  for (std::size_t i = 0; i + 1 < pts.size(); ++i) {
    EXPECT_TRUE(affine[i] == c.to_affine(pts[i])) << "point " << i;
  }
  EXPECT_TRUE(affine.back().infinity);
}

TEST_F(CurveTest, AddInfinityIdentity) {
  const Point inf = c.infinity();
  EXPECT_TRUE(c.equal(c.add(inf, c.generator()), c.generator()));
  EXPECT_TRUE(c.equal(c.add(c.generator(), inf), c.generator()));
  EXPECT_TRUE(c.add(inf, inf).is_infinity());
}

TEST_F(CurveTest, AddPointAndNegationIsInfinity) {
  EXPECT_TRUE(c.add(c.generator(), c.negate(c.generator())).is_infinity());
}

TEST_F(CurveTest, AffineSerializationRoundTrip) {
  const AffinePoint p = c.to_affine(c.mul_g(U256(777)));
  const auto back = AffinePoint::deserialize(p.serialize());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, p);
}

TEST_F(CurveTest, InfinitySerializationRoundTrip) {
  AffinePoint inf;
  inf.infinity = true;
  const auto back = AffinePoint::deserialize(inf.serialize());
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(back->infinity);
}

TEST_F(CurveTest, DeserializeRejectsOffCurvePoints) {
  AffinePoint bogus = c.to_affine(c.mul_g(U256(5)));
  U256 y = bogus.y;
  U256 tweaked;
  u256_add(tweaked, y, U256(1));
  bogus.y = tweaked;
  EXPECT_FALSE(AffinePoint::deserialize(bogus.serialize()).has_value());
}

TEST_F(CurveTest, ScalarFromDigestBelowOrder) {
  const U256 s = scalar_from_digest(sha256(to_bytes("anything")));
  EXPECT_TRUE(u256_less(s, c.order()));
}

TEST_F(CurveTest, ScalarFromDigestMatchesLongDivision) {
  const U256 n = c.order();
  U256 n_minus_1, n_plus_1;
  u256_sub(n_minus_1, n, U256(1));
  u256_add(n_plus_1, n, U256(1));
  const U256 all_ones = U256::from_limbs(~0ULL, ~0ULL, ~0ULL, ~0ULL);
  for (const U256& x : {U256(0), n_minus_1, n, n_plus_1, all_ones}) {
    Digest d;
    d.bytes = x.to_bytes_be();
    EXPECT_EQ(scalar_from_digest(d), u256_mod(x, n)) << x.hex();
  }
}

// --- Schnorr --------------------------------------------------------------------

TEST(Schnorr, SignVerifyRoundTrip) {
  const KeyPair kp = KeyPair::deterministic(1);
  const Bytes msg = to_bytes("transaction payload");
  EXPECT_TRUE(verify(kp.public_key(), msg, kp.sign(msg)));
}

TEST(Schnorr, RejectsWrongMessage) {
  const KeyPair kp = KeyPair::deterministic(1);
  const Signature sig = kp.sign(to_bytes("m1"));
  EXPECT_FALSE(verify(kp.public_key(), to_bytes("m2"), sig));
}

TEST(Schnorr, RejectsWrongKey) {
  const KeyPair a = KeyPair::deterministic(1);
  const KeyPair b = KeyPair::deterministic(2);
  const Bytes msg = to_bytes("m");
  EXPECT_FALSE(verify(b.public_key(), msg, a.sign(msg)));
}

TEST(Schnorr, RejectsTamperedSignature) {
  const KeyPair kp = KeyPair::deterministic(3);
  const Bytes msg = to_bytes("m");
  Signature sig = kp.sign(msg);
  U256 s2;
  u256_add(s2, sig.s, U256(1));
  sig.s = s2;
  EXPECT_FALSE(verify(kp.public_key(), msg, sig));
}

TEST(Schnorr, DeterministicSigning) {
  const KeyPair kp = KeyPair::deterministic(4);
  const Bytes msg = to_bytes("m");
  const Signature s1 = kp.sign(msg);
  const Signature s2 = kp.sign(msg);
  EXPECT_EQ(s1.r, s2.r);
  EXPECT_EQ(s1.s, s2.s);
}

TEST(Schnorr, DistinctKeysFromDistinctSeeds) {
  EXPECT_NE(KeyPair::deterministic(1).public_key(),
            KeyPair::deterministic(2).public_key());
}

TEST(Schnorr, SignatureSerializationRoundTrip) {
  const KeyPair kp = KeyPair::deterministic(5);
  const Bytes msg = to_bytes("serialize me");
  const Signature sig = kp.sign(msg);
  const auto back = Signature::deserialize(sig.serialize());
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(verify(kp.public_key(), msg, *back));
}

TEST(Schnorr, DeserializeRejectsGarbage) {
  EXPECT_FALSE(Signature::deserialize(to_bytes("not a signature")).has_value());
  EXPECT_FALSE(Signature::deserialize({}).has_value());
}

TEST(Schnorr, DeserializeRejectsNonCanonicalScalar) {
  // s must be a reduced scalar: s == n (and anything above) is rejected even
  // though s mod n would verify — non-canonical encodings are malleable.
  const KeyPair kp = KeyPair::deterministic(6);
  Signature sig = kp.sign(to_bytes("m"));
  const U256 n = Curve::instance().order();
  sig.s = n;
  EXPECT_FALSE(Signature::deserialize(sig.serialize()).has_value());
  u256_add(sig.s, n, U256(1));  // n + 1 (no 256-bit overflow: n < 2^256 - 1)
  EXPECT_FALSE(Signature::deserialize(sig.serialize()).has_value());
}

TEST(Schnorr, DeserializeRejectsInfinityR) {
  // R = k·G with k != 0 is never infinity; an infinity R encodes s·G == c·P,
  // which a signer without the secret key could satisfy trivially for c == 0.
  const KeyPair kp = KeyPair::deterministic(7);
  Signature sig = kp.sign(to_bytes("m"));
  sig.r = AffinePoint{};
  sig.r.infinity = true;
  EXPECT_FALSE(Signature::deserialize(sig.serialize()).has_value());
}

// --- Batched Schnorr verification ------------------------------------------------

class BatchVerifyTest : public ::testing::Test {
 protected:
  struct Entry {
    PublicKey pk;
    Bytes message;
    Signature sig;
  };

  void make_entries(std::size_t n, std::uint64_t seed_base = 500) {
    entries.clear();
    for (std::size_t i = 0; i < n; ++i) {
      const KeyPair kp = KeyPair::deterministic(seed_base + i);
      Bytes msg = to_bytes("batch message " + std::to_string(i));
      const Signature sig = kp.sign(msg);
      entries.push_back(Entry{kp.public_key(), std::move(msg), sig});
    }
  }

  std::vector<BatchItem> items() const {
    std::vector<BatchItem> out;
    out.reserve(entries.size());
    for (const Entry& e : entries) {
      out.push_back(BatchItem{&e.pk, BytesView(e.message.data(), e.message.size()),
                              &e.sig});
    }
    return out;
  }

  std::vector<Entry> entries;
};

TEST_F(BatchVerifyTest, AllValidBatchAccepted) {
  make_entries(9);
  const auto verdicts = batch_verify(items());
  ASSERT_EQ(verdicts.size(), entries.size());
  for (std::size_t i = 0; i < verdicts.size(); ++i) {
    EXPECT_EQ(verdicts[i], 1) << "item " << i;
  }
}

TEST_F(BatchVerifyTest, EmptyAndSingletonBatches) {
  EXPECT_TRUE(batch_verify({}).empty());
  make_entries(1);
  EXPECT_EQ(batch_verify(items()), std::vector<unsigned char>{1});
  entries[0].message = to_bytes("tampered");
  EXPECT_EQ(batch_verify(items()), std::vector<unsigned char>{0});
}

TEST_F(BatchVerifyTest, CorruptedSubsetsAttributedExactly) {
  // Property: for any corrupted subset (drawn from a hash, covering empty,
  // singleton, runs, and scattered patterns) the recursive split pins the
  // exact bad indices — no false accepts and no collateral rejects.
  const std::size_t n = 12;
  const auto& fn = Curve::instance().fn();
  for (std::uint64_t trial = 0; trial < 12; ++trial) {
    make_entries(n, 500 + trial * 100);
    const Digest d = sha256(to_bytes("corrupt-mask " + std::to_string(trial)));
    const std::uint16_t mask =
        static_cast<std::uint16_t>((d.bytes[0] | (d.bytes[1] << 8)) & 0x0FFF);
    for (std::size_t i = 0; i < n; ++i) {
      if (!(mask >> i & 1)) continue;
      // s += 1 mod n: structurally well-formed, cryptographically wrong.
      entries[i].sig.s =
          fn.from_mont(fn.add(fn.to_mont(entries[i].sig.s), fn.to_mont(U256(1))));
    }
    const auto verdicts = batch_verify(items());
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(verdicts[i], (mask >> i & 1) ? 0 : 1)
          << "trial " << trial << " item " << i << " mask " << mask;
    }
  }
}

TEST_F(BatchVerifyTest, CancellationPairCaught) {
  // Two defects engineered to cancel under unit coefficients: s0 += d and
  // s1 -= d leave Σsᵢ (and every other aggregate term) unchanged, so a naive
  // z == 1 batch equation would accept both. The Fiat–Shamir zᵢ are fixed by
  // the batch contents but not under the signer's control, so the weighted
  // sum z₀·d - z₁·d vanishes only if z₀ == z₁ — and the split then verifies
  // each signature individually anyway.
  make_entries(6);
  const auto& fn = Curve::instance().fn();
  const Fe d = fn.to_mont(U256(123456789));
  entries[0].sig.s = fn.from_mont(fn.add(fn.to_mont(entries[0].sig.s), d));
  entries[1].sig.s = fn.from_mont(fn.sub(fn.to_mont(entries[1].sig.s), d));
  ASSERT_FALSE(verify(entries[0].pk, entries[0].message, entries[0].sig));
  ASSERT_FALSE(verify(entries[1].pk, entries[1].message, entries[1].sig));
  const auto verdicts = batch_verify(items());
  EXPECT_EQ(verdicts[0], 0);
  EXPECT_EQ(verdicts[1], 0);
  for (std::size_t i = 2; i < entries.size(); ++i) {
    EXPECT_EQ(verdicts[i], 1) << "item " << i;
  }
}

TEST_F(BatchVerifyTest, CoefficientSolveForgeryRejected) {
  // Regression: the RLC coefficient seed must commit to each signature's s.
  // An earlier derivation hashed only (R, pk, m), so an adversary holding
  // the batch's secret keys could compute every zᵢ before committing to the
  // s values and then solve z₀·d₀ + z₁·d₁ == 0 (mod n) for offsets that
  // leave Σ zᵢsᵢ — and hence the full-batch aggregate — unchanged while
  // both signatures fail individual verification. Reproduce that exact
  // solve against the s-free derivation and check the batch rejects it.
  make_entries(6);
  const auto& fn = Curve::instance().fn();

  // The zᵢ exactly as the flawed scheme derived them: s absent from the seed.
  Sha256 seed_h;
  seed_h.update(to_bytes("fides-batch-verify-v1"));
  for (const Entry& e : entries) {
    seed_h.update(e.sig.r.serialize());
    seed_h.update(e.pk.serialize());
    seed_h.update(sha256(e.message).view());
  }
  const Digest seed = seed_h.finalize();
  const auto coeff = [&seed](std::size_t i) {
    Sha256 h;
    h.update(seed.view());
    Writer w;
    w.u64(static_cast<std::uint64_t>(i));
    h.update(w.data());
    U256 zi = U256::from_bytes_be(h.finalize().view());
    zi.w[2] = 0;
    zi.w[3] = 0;
    if (zi.is_zero()) zi = U256(1);
    return zi;
  };

  // d₁ = -z₀·d₀ / z₁ mod n cancels the d₀ perturbation in the z-weighted sum.
  const Fe z0 = fn.to_mont(coeff(0));
  const Fe z1 = fn.to_mont(coeff(1));
  const Fe d0 = fn.to_mont(U256(0xD00DFEEDULL));
  const Fe d1 = fn.neg(fn.mul(fn.mul(z0, d0), fn.inverse(z1)));
  entries[0].sig.s = fn.from_mont(fn.add(fn.to_mont(entries[0].sig.s), d0));
  entries[1].sig.s = fn.from_mont(fn.add(fn.to_mont(entries[1].sig.s), d1));
  ASSERT_FALSE(verify(entries[0].pk, entries[0].message, entries[0].sig));
  ASSERT_FALSE(verify(entries[1].pk, entries[1].message, entries[1].sig));

  const auto verdicts = batch_verify(items());
  EXPECT_EQ(verdicts[0], 0);
  EXPECT_EQ(verdicts[1], 0);
  for (std::size_t i = 2; i < entries.size(); ++i) {
    EXPECT_EQ(verdicts[i], 1) << "item " << i;
  }
}

TEST_F(BatchVerifyTest, ScreensNonCanonicalItems) {
  // The structural screen rejects malformed items without poisoning the
  // aggregate: same strictness as Signature::deserialize, exercised through
  // the batch path (s >= n and infinity R never reach the MSM).
  make_entries(5);
  entries[1].sig.s = Curve::instance().order();
  entries[3].sig.r = AffinePoint{};
  entries[3].sig.r.infinity = true;
  const auto verdicts = batch_verify(items());
  const std::vector<unsigned char> want{1, 0, 1, 0, 1};
  EXPECT_EQ(verdicts, want);
}

// --- CoSi ------------------------------------------------------------------------

class CosiTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (std::uint64_t i = 0; i < 4; ++i) {
      keypairs.push_back(KeyPair::deterministic(100 + i));
      pks.push_back(keypairs.back().public_key());
    }
  }

  CosiSignature collective_sign(BytesView record, std::uint64_t round) {
    commitments.clear();
    vs.clear();
    for (const auto& kp : keypairs) {
      commitments.push_back(cosi_commit(kp, record, round));
      vs.push_back(commitments.back().v);
    }
    const AffinePoint v_agg = cosi_aggregate_commitments(vs);
    challenge = cosi_challenge(v_agg, record);
    responses.clear();
    for (std::size_t i = 0; i < keypairs.size(); ++i) {
      responses.push_back(cosi_respond(keypairs[i], commitments[i].secret, challenge));
    }
    return CosiSignature{v_agg, cosi_aggregate_responses(responses)};
  }

  std::vector<KeyPair> keypairs;
  std::vector<PublicKey> pks;
  std::vector<CosiCommitment> commitments;
  std::vector<AffinePoint> vs;
  std::vector<U256> responses;
  U256 challenge;
};

TEST_F(CosiTest, FullRoundVerifies) {
  const Bytes record = to_bytes("block-contents");
  const CosiSignature sig = collective_sign(record, 1);
  EXPECT_TRUE(cosi_verify(record, sig, pks));
}

TEST_F(CosiTest, RejectsDifferentRecord) {
  const CosiSignature sig = collective_sign(to_bytes("block-1"), 1);
  EXPECT_FALSE(cosi_verify(to_bytes("block-2"), sig, pks));
}

TEST_F(CosiTest, RejectsWrongWitnessSet) {
  const Bytes record = to_bytes("block");
  const CosiSignature sig = collective_sign(record, 1);
  std::vector<PublicKey> missing(pks.begin(), pks.end() - 1);
  EXPECT_FALSE(cosi_verify(record, sig, missing));
  auto extra = pks;
  extra.push_back(KeyPair::deterministic(999).public_key());
  EXPECT_FALSE(cosi_verify(record, sig, extra));
}

TEST_F(CosiTest, RejectsEmptyWitnessSet) {
  const CosiSignature sig = collective_sign(to_bytes("b"), 1);
  EXPECT_FALSE(cosi_verify(to_bytes("b"), sig, {}));
}

TEST_F(CosiTest, PerShareVerification) {
  const Bytes record = to_bytes("block");
  collective_sign(record, 2);
  for (std::size_t i = 0; i < keypairs.size(); ++i) {
    EXPECT_TRUE(cosi_verify_share(vs[i], responses[i], challenge, pks[i]));
  }
}

TEST_F(CosiTest, FaultyWitnessIdentified) {
  // Lemma 4: a corrupt response invalidates the aggregate and the per-share
  // check pinpoints exactly the misbehaving witness.
  const Bytes record = to_bytes("block");
  collective_sign(record, 3);
  responses[1] = U256(424242);
  const CosiSignature bad{cosi_aggregate_commitments(vs),
                          cosi_aggregate_responses(responses)};
  EXPECT_FALSE(cosi_verify(record, bad, pks));
  const auto faulty = cosi_find_faulty(vs, responses, challenge, pks);
  ASSERT_EQ(faulty.size(), 1u);
  EXPECT_EQ(faulty[0], 1u);
}

TEST_F(CosiTest, MultipleFaultyWitnessesIdentified) {
  const Bytes record = to_bytes("block");
  collective_sign(record, 4);
  responses[0] = U256(1);
  responses[3] = U256(2);
  const auto faulty = cosi_find_faulty(vs, responses, challenge, pks);
  EXPECT_EQ(faulty, (std::vector<std::size_t>{0, 3}));
}

TEST_F(CosiTest, FindFaultyRejectsMismatchedSpans) {
  // Regression: mismatched span lengths used to index past the shorter
  // vector. A caller-assembly error now condemns every slot instead of
  // reading out of bounds (or silently truncating the scan).
  const Bytes record = to_bytes("block");
  collective_sign(record, 6);
  const std::vector<std::size_t> all{0, 1, 2, 3};
  std::vector<U256> short_responses(responses.begin(), responses.end() - 1);
  EXPECT_EQ(cosi_find_faulty(vs, short_responses, challenge, pks), all);
  std::vector<PublicKey> short_pks(pks.begin(), pks.end() - 2);
  EXPECT_EQ(cosi_find_faulty(vs, responses, challenge, short_pks), all);
  EXPECT_TRUE(cosi_find_faulty({}, {}, challenge, {}).empty());
}

TEST_F(CosiTest, DistinctRoundsDistinctNonces) {
  const Bytes record = to_bytes("block");
  const CosiCommitment c1 = cosi_commit(keypairs[0], record, 1);
  const CosiCommitment c2 = cosi_commit(keypairs[0], record, 2);
  EXPECT_NE(c1.secret, c2.secret);
  EXPECT_FALSE(c1.v == c2.v);
}

TEST_F(CosiTest, SignatureSerializationRoundTrip) {
  const Bytes record = to_bytes("block");
  const CosiSignature sig = collective_sign(record, 5);
  const auto back = CosiSignature::deserialize(sig.serialize());
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(cosi_verify(record, *back, pks));
}

TEST_F(CosiTest, SingleWitnessDegeneratesToSchnorr) {
  // One witness: CoSi is plain Schnorr over the record.
  const Bytes record = to_bytes("solo");
  const CosiCommitment c = cosi_commit(keypairs[0], record, 1);
  const U256 ch = cosi_challenge(c.v, record);
  const U256 r = cosi_respond(keypairs[0], c.secret, ch);
  const CosiSignature sig{c.v, r};
  EXPECT_TRUE(cosi_verify(record, sig, std::span(&pks[0], 1)));
}

}  // namespace
}  // namespace fides::crypto
